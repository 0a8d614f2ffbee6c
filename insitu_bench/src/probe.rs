//! Clocks, process resource usage and the benchmark's own spans.

use std::os::raw::{c_int, c_long};

/// Nanoseconds on the process clock every `obsv` span also stamps
/// against, so benchmark spans and library spans share one timeline.
pub fn now_ns() -> u64 {
    obsv::clock::now_ns()
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen
/// `long` fields starting with `ru_maxrss`.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

fn rusage() -> RUsage {
    let mut u = RUsage::default();
    // SAFETY: `u` is a properly aligned, writable `struct rusage` of the
    // platform layout, and RUSAGE_SELF is a valid `who` argument.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with valid arguments");
    u
}

/// User plus system CPU seconds of the whole process (all threads,
/// exited ones included).
pub fn cpu_time() -> f64 {
    let u = rusage();
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&u.utime) + tv(&u.stime)
}

/// Peak resident set of the process, in bytes.
pub fn peak_rss_bytes() -> u64 {
    // Linux reports ru_maxrss in KiB.
    rusage().maxrss.max(0) as u64 * 1024
}

/// One span the benchmark recorded around a public call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call` name, or `step` for a rank's whole step.
    pub name: &'static str,
    /// Enclosing span (`""` for a step root).
    pub parent: &'static str,
    /// Step id shared by every span of one step.
    pub step: u64,
    /// Start on the [`now_ns`] clock.
    pub start_ns: u64,
    /// End on the [`now_ns`] clock.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span buffer of one rank; records nothing when off, so
/// untraced runs time the calls bare.
pub struct Spans {
    on: bool,
    list: Vec<Span>,
}

impl Spans {
    /// A buffer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Spans { on, list: Vec::new() }
    }

    /// Run `f` inside a span named `name`, child of the step span.
    pub fn time<R>(&mut self, name: &'static str, step: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = now_ns();
        let out = f();
        self.list.push(Span { name, parent: "step", step, start_ns, end_ns: now_ns() });
        out
    }

    /// Record a child span of the step whose bounds were taken already.
    pub fn child(&mut self, name: &'static str, step: u64, start_ns: u64, end_ns: u64) {
        if self.on {
            self.list.push(Span { name, parent: "step", step, start_ns, end_ns });
        }
    }

    /// Record the root span of one step.
    pub fn root(&mut self, name: &'static str, step: u64, start_ns: u64, end_ns: u64) {
        if self.on {
            self.list.push(Span { name, parent: "", step, start_ns, end_ns });
        }
    }

    /// The recorded spans.
    pub fn into_vec(self) -> Vec<Span> {
        self.list
    }
}
