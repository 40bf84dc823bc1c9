//! What the benchmark records about the host, so that noise can be told
//! apart from a regression.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Keys the probe works on (128 KiB of `u64`).
const PROBE_KEYS: usize = 1 << 14;

/// `n` xorshift keys from `seed`.
fn seeded_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
        .collect()
}

/// The reference computation on `keys`: a sort, an ordered map of a quarter
/// of them and a hash map of small heap allocations for half, then lookups.
fn reference_work(keys: &[u64]) -> (u64, usize) {
    let keys = black_box(keys);
    let n = keys.len();
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    let tree: BTreeMap<u64, usize> = keys[..n / 4]
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i))
        .collect();
    let mut map: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for &k in &keys[..n / 2] {
        map.insert(k, vec![k as u8; 48]);
    }
    let found: usize = keys[..n / 4]
        .iter()
        .map(|k| tree[k] + map.get(k).map_or(0, Vec::len))
        .sum();
    black_box((sorted[n / 2], found))
}

/// A typical probe sample on the 2-core VM the bounds in `BENCHMARK.json`
/// were set on, ns. Adjusted timings read as the time the operation takes
/// on a host where the probe takes this long.
pub const PROBE_REFERENCE_NS: f64 = 2.0e6;

/// A fixed reference computation that shares no code with rackfabric: the
/// kinds of work the simulator and the store are made of — sorting, an
/// ordered map, a hash map of small heap allocations — on seeded keys. Its
/// time tracks the speed of the core it runs on (clock, steal by the
/// hypervisor, other tenants on the same core and caches) and not the code
/// under test. A single-threaded operation is timed right after a probe
/// sample and divided by it ([`adjusted`] with [`PROBE_REFERENCE_NS`]),
/// which takes out the host's drift between runs.
pub struct Probe {
    keys: Vec<u64>,
    /// Time of each sample taken, ns.
    pub samples: Vec<f64>,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            keys: seeded_keys(PROBE_KEYS, 0x9E37_79B9_7F4A_7C15),
            samples: Vec::new(),
        }
    }

    /// Times one pass of the reference computation, after an untimed pass
    /// that brings its data back into the caches the measured work evicted
    /// it from. Returns the time, ns.
    pub fn sample(&mut self) -> f64 {
        reference_work(&self.keys);
        let start = Instant::now();
        reference_work(&self.keys);
        let ns = nanos(start.elapsed());
        self.samples.push(ns);
        ns
    }
}

/// `op_ns` at the reference host's speed: scaled by `reference_ns` over
/// `probe_ns`, the time of the probe measured next to the operation and
/// its typical time on the reference host.
pub fn adjusted(op_ns: f64, probe_ns: f64, reference_ns: f64) -> f64 {
    op_ns * reference_ns / probe_ns
}

/// Timed round trips each client makes in one service probe sample.
const SERVICE_PROBE_TRIPS: usize = 40;

/// Keys a service probe worker computes on per request.
const SERVICE_WORK_KEYS: usize = 4096;

/// Keys the reply of a service probe request renders.
const SERVICE_REPLY_KEYS: usize = 256;

/// A typical service probe sample on the reference host, ns (see
/// [`PROBE_REFERENCE_NS`]).
pub const SERVICE_PROBE_REFERENCE_NS: f64 = 1.2e6;

/// A request and the channel its reply goes back on.
type ServiceJob = (Vec<u8>, mpsc::Sender<String>);

/// The probe for service work: a loopback TCP service built the way
/// `rackfabricd` is, from std alone — an acceptor that starts a thread per
/// connection, which hands the request line to a pool of workers through a
/// queue and writes three event lines back, the last a few KiB of rendered
/// numbers; the worker's compute is the compute probe's kind of work. A
/// sample drives it in a closed loop from as many client threads as the
/// daemon's load has, so it loads the host the way the load does: connection
/// set-up, thread starts, wake-ups and compute on every core. It shares no
/// code with rackfabric.
pub struct ServiceProbe {
    addr: SocketAddr,
    clients: usize,
    stop: Arc<AtomicBool>,
    jobs: Option<mpsc::Sender<ServiceJob>>,
    threads: Vec<JoinHandle<()>>,
    /// Each sample taken, ns.
    pub samples: Vec<f64>,
}

impl ServiceProbe {
    /// Starts the probe service with `workers` workers; each sample drives
    /// it from `clients` threads.
    pub fn start(workers: usize, clients: usize) -> io::Result<ServiceProbe> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (jobs, queue) = mpsc::channel::<ServiceJob>();
        let queue = Arc::new(Mutex::new(queue));
        let keys = Arc::new(seeded_keys(SERVICE_WORK_KEYS, 0x51_7CC1_B727_220A));
        let mut threads = Vec::with_capacity(workers + 1);
        for _ in 0..workers {
            let (queue, keys) = (queue.clone(), keys.clone());
            threads.push(std::thread::spawn(move || loop {
                let job = queue.lock().expect("probe queue").recv();
                let Ok((request, reply)) = job else { return };
                let _ = reply.send(service_work(&keys, &request));
            }));
        }
        let (accept_stop, accept_jobs) = (stop.clone(), jobs.clone());
        threads.push(std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                let jobs = accept_jobs.clone();
                std::thread::spawn(move || {
                    let _ = serve_probe_connection(stream, &jobs);
                });
            }
        }));
        Ok(ServiceProbe {
            addr,
            clients: clients.max(1),
            stop,
            jobs: Some(jobs),
            threads,
            samples: Vec::new(),
        })
    }

    /// Takes one sample: every client makes one untimed round trip, then
    /// [`SERVICE_PROBE_TRIPS`] timed ones, all clients at once. Returns the
    /// median round trip, ns.
    pub fn sample(&mut self) -> io::Result<f64> {
        let addr = self.addr;
        let per_client: Vec<io::Result<Vec<f64>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.clients)
                .map(|_| {
                    scope.spawn(move || {
                        probe_trip(addr)?;
                        (0..SERVICE_PROBE_TRIPS)
                            .map(|_| {
                                let start = Instant::now();
                                probe_trip(addr)?;
                                Ok(nanos(start.elapsed()))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe client panicked"))
                .collect()
        });
        let mut times = Vec::new();
        for trips in per_client {
            times.extend(trips?);
        }
        let ns = crate::stats::median(&times);
        self.samples.push(ns);
        Ok(ns)
    }
}

impl Drop for ServiceProbe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wakes the acceptor, which sees the flag and exits; the workers
        // exit once every queue sender is gone.
        let _ = TcpStream::connect(self.addr);
        self.jobs.take();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// One probe connection: read the request line, acknowledge it, hand it to
/// a worker, then write two more lines, the last the worker's reply.
fn serve_probe_connection(stream: TcpStream, jobs: &mpsc::Sender<ServiceJob>) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut request = Vec::new();
    BufReader::new(stream).read_until(b'\n', &mut request)?;
    writer.write_all(b"{\"event\":\"accepted\"}\n")?;
    let (reply, answer) = mpsc::channel();
    jobs.send((request, reply))
        .map_err(|_| io::Error::other("probe stopped"))?;
    let body = answer
        .recv()
        .map_err(|_| io::Error::other("probe stopped"))?;
    writer.write_all(b"{\"event\":\"started\"}\n")?;
    writer.write_all(body.as_bytes())
}

/// A probe worker's reply: the reference computation over `keys`, then the
/// first keys rendered as one line of decimal numbers.
fn service_work(keys: &[u64], request: &[u8]) -> String {
    black_box((reference_work(keys), request.len()));
    let mut line = keys[..SERVICE_REPLY_KEYS]
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    line.push('\n');
    line
}

/// One probe round trip: connect, send a request line, read the three
/// reply lines and parse the numbers of the last.
fn probe_trip(addr: SocketAddr) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(b"{\"op\":\"submit\",\"tenant\":\"probe\",\"command\":{}}\n")?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for _ in 0..3 {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "probe service closed early",
            ));
        }
    }
    let sum = line
        .trim_end()
        .split(',')
        .filter_map(|n| n.parse::<u64>().ok())
        .fold(0u64, u64::wrapping_add);
    black_box(sum);
    Ok(())
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 when unknown.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .unwrap_or(0)
}

/// The aggregate CPU line of `/proc/stat`: `(steal, total)` jiffies.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Steal share between two [`cpu_jiffies`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// The source revision: `git rev-parse HEAD` in `repo`, or "unknown" for a
/// checkout without git metadata of its own (git is not asked, so it cannot
/// report an enclosing repository's revision instead).
pub fn git_rev(repo: &Path) -> String {
    if !repo.join(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Nanoseconds of `d` as a float sample.
pub fn nanos(d: Duration) -> f64 {
    d.as_nanos() as f64
}
