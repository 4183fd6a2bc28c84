//! `serve_repeat`: an in-process `Server` (2 shards, disk cache in a
//! temporary directory) driven closed-loop through `Client::eval` by one
//! connection that waits for each reply before sending the next request,
//! as `procrustes-cli` does.
//!
//! Set-up pre-populates the cache directory with a seeded part of the
//! scenario pool through a throwaway daemon, then binds the measured
//! daemon on that directory. The seeded request sequence mixes first
//! touches of pre-populated scenarios (disk reads), first touches of
//! never-seen ones (computed), repeats (memo hits) and periodic
//! `metrics` calls. Arm `a` is every first touch, arm `b` every repeat.
//! Every served document is compared afterwards with the in-process
//! `Engine::run(..).to_json()` of its scenario.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use procrustes_core::{Engine, Scenario};
use procrustes_serve::{Client, Request, Route, ServeConfig, Server, ServerMetrics, Source};

use crate::inputs::{serve_plan, Request as Planned, ServePlan};
use crate::stats::{combine, ms_since, Outcome};

/// Daemon worker shards.
const SHARDS: usize = 2;
/// Connections that pre-populate the cache during set-up.
const CONNECTIONS: usize = 2;
/// Times set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 3;
/// Memo-hit requests the traced phase also sends as one write on a raw
/// socket, to split a hit's latency between the client's write path and
/// the daemon.
const ONE_WRITE_PROBES: usize = 20;

/// A running daemon on its own cache directory.
struct Daemon {
    addr: SocketAddr,
    run: JoinHandle<io::Result<()>>,
}

impl Daemon {
    fn start(dir: &Path) -> io::Result<Daemon> {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                shards: SHARDS,
                cache_dir: Some(dir.to_path_buf()),
                ..ServeConfig::default()
            },
        )?;
        let addr = server.local_addr();
        let run = thread::spawn(move || server.run());
        Ok(Daemon { addr, run })
    }

    fn stop(self) -> io::Result<()> {
        Client::connect(self.addr)?
            .shutdown()
            .map_err(|e| io::Error::other(e.to_string()))?;
        self.run
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?
    }
}

/// A measured daemon with its connected client.
struct Env {
    daemon: Daemon,
    client: Client,
    dir: PathBuf,
}

impl Env {
    fn teardown(self) -> io::Result<()> {
        drop(self.client);
        let stopped = self.daemon.stop();
        let removed = std::fs::remove_dir_all(&self.dir);
        stopped.and(removed)
    }
}

/// Where the cache directories go: next to the build output, inside the
/// checkout.
fn scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("repobench-tmp")
}

/// Evaluates `scenarios` over `CONNECTIONS` clients, splitting them
/// round-robin.
fn eval_all(addr: SocketAddr, scenarios: &[&Scenario]) -> Result<(), String> {
    thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    for s in scenarios.iter().skip(c).step_by(CONNECTIONS) {
                        client.eval(s).map_err(|e| e.to_string())?;
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().map_err(|_| "client thread panicked".to_string())?)
    })
}

/// Pre-populates a fresh cache directory through a throwaway daemon,
/// then binds the measured daemon on it and connects the client.
fn setup(plan: &ServePlan, dir: PathBuf) -> io::Result<Env> {
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    let throwaway = Daemon::start(&dir)?;
    let warm: Vec<&Scenario> = plan.prepopulated.iter().map(|&i| &plan.pool[i]).collect();
    let filled = eval_all(throwaway.addr, &warm);
    throwaway.stop()?;
    filled.map_err(io::Error::other)?;
    let daemon = Daemon::start(&dir)?;
    let mut client = Client::connect(daemon.addr)?;
    client.status().map_err(io::Error::other)?;
    Ok(Env {
        daemon,
        client,
        dir,
    })
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let plan = serve_plan(seed);
    let root = scratch_root();
    let dir = root.join(format!("serve-{}", std::process::id()));
    let result = run_in(&plan, &dir, seconds, trace);
    let _ = std::fs::remove_dir_all(&dir);
    // Only succeeds once no other run is using it.
    let _ = std::fs::remove_dir(&root);
    result.map_err(|e| e.to_string())
}

fn run_in(plan: &ServePlan, root: &Path, seconds: f64, trace: bool) -> io::Result<Outcome> {
    let mut setup_s = Vec::new();
    let mut env = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let fresh = setup(plan, root.join(format!("cache-{k}")))?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(old) = env.replace(fresh) {
            old.teardown()?;
        }
    }
    let mut env = env.expect("SETUPS > 0");
    let budget = if trace { seconds / 2.0 } else { seconds };
    let plain = measure(plan, &mut env, budget, false)?;
    env.teardown()?;
    let traced = if trace {
        // The traced phase replays the same sequence on a daemon set up
        // afresh, so both phases see the same mix.
        let mut env = setup(plan, root.join("cache-traced"))?;
        let traced = measure(plan, &mut env, budget, true)?;
        env.teardown()?;
        Some(traced)
    } else {
        None
    };
    Ok(combine(&setup_s, plain, traced))
}

/// One answered request.
struct Reply {
    index: usize,
    source: Source,
    ms: f64,
    doc: String,
}

/// What the connection saw.
#[derive(Default)]
struct ConnLog {
    replies: Vec<Reply>,
    attempted: u64,
    failed: u64,
}

fn metrics(client: &mut Client) -> io::Result<ServerMetrics> {
    client.metrics().map_err(io::Error::other)
}

/// Drives the request sequence for `budget` seconds, then checks every
/// served document against the in-process engine.
fn measure(plan: &ServePlan, env: &mut Env, budget: f64, trace: bool) -> io::Result<Outcome> {
    let before = metrics(&mut env.client)?;
    let start = Instant::now();
    let log = drive(
        &mut env.client,
        plan,
        start,
        Duration::from_secs_f64(budget),
    );
    let wall_s = start.elapsed().as_secs_f64();
    let after = metrics(&mut env.client)?;

    let mut out = Outcome::default();
    let replies: Vec<&Reply> = log.replies.iter().collect();
    out.attempted = log.attempted;
    out.failed = log.failed;
    // Every reply must equal the in-process document of its scenario.
    let distinct: BTreeSet<usize> = replies.iter().map(|r| r.index).collect();
    let indices: Vec<usize> = distinct.into_iter().collect();
    let scenarios: Vec<Scenario> = indices.iter().map(|&i| plan.pool[i].clone()).collect();
    // An engine that cannot evaluate them leaves every reply unmatched.
    let reference = Engine::with_threads(SHARDS)
        .run_all(&scenarios)
        .unwrap_or_default();
    let reference: BTreeMap<usize, String> = indices
        .iter()
        .zip(&reference)
        .map(|(&i, r)| (i, r.to_json()))
        .collect();
    let mismatched = replies
        .iter()
        .filter(|r| reference.get(&r.index) != Some(&r.doc))
        .count();
    out.failed += mismatched as u64;

    let first_touch = |r: &&&Reply| matches!(r.source, Source::Disk | Source::Computed);
    let a: Vec<f64> = replies.iter().filter(first_touch).map(|r| r.ms).collect();
    let b: Vec<f64> = replies
        .iter()
        .filter(|r| !first_touch(r))
        .map(|r| r.ms)
        .collect();
    out.set("ops_per_s", replies.len() as f64 / wall_s);
    if !trace {
        out.set_dist("a_ms.p50", "a_ms.tail", &a);
        out.set_dist("b_ms.p50", "b_ms.tail", &b);
        return Ok(out);
    }

    for (name, source) in [
        ("serve.eval_ms.memo", Source::Memo),
        ("serve.eval_ms.disk", Source::Disk),
        ("serve.eval_ms.computed", Source::Computed),
    ] {
        let ms: Vec<f64> = replies
            .iter()
            .filter(|r| r.source == source)
            .map(|r| r.ms)
            .collect();
        out.set_median(name, &ms);
    }
    let hit = replies
        .iter()
        .find(|r| r.source == Source::Memo)
        .map(|r| &plan.pool[r.index]);
    let probes = match hit {
        Some(hit) => one_write_probes(env.daemon.addr, hit)?,
        None => Vec::new(),
    };
    out.set_median("serve.memo_one_write_ms", &probes);
    let daemon_p50 = after
        .verbs
        .iter()
        .find(|(verb, _)| verb == "eval")
        .and_then(|(_, m)| m.p50_ms)
        .unwrap_or(f64::NAN);
    out.set("serve.daemon_eval_p50_ms", daemon_p50);
    let delta = |f: fn(&ServerMetrics) -> u64| (f(&after) - f(&before)) as f64;
    let memo = delta(|m| m.memo_hits);
    let disk = delta(|m| m.disk_hits);
    let computed = delta(|m| m.computed);
    out.set("serve.memo_hits", memo);
    out.set("serve.disk_hits", disk);
    out.set("serve.computed", computed);
    out.set("serve.shed", delta(|m| m.shed));
    out.set(
        "serve.hit_rate",
        (memo + disk) / (memo + disk + computed).max(1.0),
    );
    Ok(out)
}

/// The closed loop: sends the next request of the sequence, waits for
/// its reply, repeats until the deadline or the end of the sequence.
fn drive(client: &mut Client, plan: &ServePlan, start: Instant, deadline: Duration) -> ConnLog {
    let mut log = ConnLog::default();
    for request in &plan.requests {
        if start.elapsed() >= deadline {
            break;
        }
        log.attempted += 1;
        let t = Instant::now();
        match *request {
            Planned::Metrics => {
                if client.metrics().is_err() {
                    log.failed += 1;
                }
            }
            Planned::Eval(index) => match client.eval(&plan.pool[index]) {
                Ok(served) => log.replies.push(Reply {
                    index,
                    source: served.source,
                    ms: ms_since(t),
                    doc: served.doc,
                }),
                Err(_) => log.failed += 1,
            },
        }
    }
    log
}

/// Sends `eval` for an already-memoized scenario as one write on a raw
/// socket and times each round trip.
fn one_write_probes(addr: SocketAddr, scenario: &Scenario) -> io::Result<Vec<f64>> {
    let line = Request::Eval {
        scenario: Box::new(scenario.clone()),
        route: Route::Auto,
    }
    .to_json()
        + "\n";
    let mut stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut reply = String::new();
    let mut times = Vec::with_capacity(ONE_WRITE_PROBES);
    for _ in 0..ONE_WRITE_PROBES {
        reply.clear();
        let t = Instant::now();
        stream.write_all(line.as_bytes())?;
        reader.read_line(&mut reply)?;
        times.push(ms_since(t));
    }
    Ok(times)
}
