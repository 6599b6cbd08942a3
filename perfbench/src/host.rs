//! What the host did while the benchmark ran: CPU stolen by the
//! hypervisor, how much of the wall time this process was on a CPU,
//! how fast the host ran a fixed calibration loop, and the process's
//! peak resident set. Steal and on-CPU time explain run-to-run noise;
//! they are recorded for every run. The calibration loop's speed turns
//! host seconds into reference seconds ([`SpeedGauge`]).

use std::hint::black_box;
use std::time::Instant;

/// Linux reports per-process CPU time in `/proc` in units of
/// `USER_HZ`, which is 100 on every Linux ABI.
const USER_HZ: f64 = 100.0;

/// A snapshot taken at the start of a measured interval.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    at: Instant,
    /// `(steal, total)` jiffies of the aggregate `cpu` line of
    /// `/proc/stat`, if readable.
    cpu: Option<(u64, u64)>,
    /// User + system CPU seconds of this process, all threads.
    proc_cpu_s: Option<f64>,
}

/// Host behaviour over a measured interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostNoise {
    /// Share of all CPUs' time the hypervisor stole, in percent.
    pub steal_pct: f64,
    /// Process CPU time (every thread, including the in-process
    /// server's) divided by wall time.
    pub oncpu_ratio: f64,
}

impl HostSample {
    /// Samples the host now.
    pub fn now() -> Self {
        Self {
            at: Instant::now(),
            cpu: read_stat_cpu(),
            proc_cpu_s: read_proc_cpu_s(),
        }
    }

    /// Host behaviour from this sample until now (zeros for any figure
    /// `/proc` could not provide).
    pub fn noise_since(&self) -> HostNoise {
        let end = HostSample::now();
        let wall = end.at.duration_since(self.at).as_secs_f64();
        let steal_pct = match (self.cpu, end.cpu) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        };
        let oncpu_ratio = match (self.proc_cpu_s, end.proc_cpu_s) {
            (Some(c0), Some(c1)) if wall > 0.0 => (c1 - c0) / wall,
            _ => 0.0,
        };
        HostNoise {
            steal_pct,
            oncpu_ratio,
        }
    }
}

/// Calibration-loop steps per second on the reference core. Reference
/// seconds are host seconds scaled by the host's speed relative to it.
pub const REFERENCE_STEPS_PER_S: f64 = 1.2e8;

/// Share of each measured interval the gauge spends calibrating.
const GAUGE_SHARE: f64 = 0.2;

/// Calibration steps between two reads of the clock.
const GAUGE_CHUNK: u64 = 20_000;

/// Measures how fast the host runs this process right now, with a fixed
/// calibration loop that is no part of the program under test.
///
/// The host is a shared VM whose core speed drifts by tens of percent
/// over seconds to minutes as its neighbours come and go. The loop keeps
/// its 4 KiB of state in L1 and takes a data-dependent, unpredictable
/// branch every step, so it slows with the core (frequency, a busy
/// hyperthread sibling) the way the simulator's branchy code does, but
/// is not slowed by the cache or memory traffic of the work it follows.
#[derive(Debug, Clone)]
pub struct SpeedGauge {
    steps: u64,
    secs: f64,
    state: [u64; 512],
    rng: u64,
}

impl Default for SpeedGauge {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedGauge {
    /// A gauge that has not calibrated yet.
    pub fn new() -> Self {
        Self {
            steps: 0,
            secs: 0.0,
            state: [0; 512],
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Runs the calibration loop for at least `secs` host seconds and
    /// returns the host's speed over that time: steps per second over
    /// [`REFERENCE_STEPS_PER_S`].
    pub fn sample(&mut self, secs: f64) -> f64 {
        let start = Instant::now();
        let mut steps = 0u64;
        loop {
            self.run(GAUGE_CHUNK);
            steps += GAUGE_CHUNK;
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= secs {
                self.steps += steps;
                self.secs += elapsed;
                return steps as f64 / elapsed / REFERENCE_STEPS_PER_S;
            }
        }
    }

    /// Converts an interval of `secs` host seconds that has just ended
    /// into reference seconds: calibrates for a fifth of it straight
    /// away and scales it by the speed found, so work that took longer
    /// only because the host was slow counts as it would on the
    /// reference core.
    pub fn reference_secs(&mut self, secs: f64) -> f64 {
        secs * self.sample(secs * GAUGE_SHARE)
    }

    /// The host's mean speed over every calibration so far (0 before
    /// the first).
    pub fn mean_speed(&self) -> f64 {
        if self.secs > 0.0 {
            self.steps as f64 / self.secs / REFERENCE_STEPS_PER_S
        } else {
            0.0
        }
    }

    fn run(&mut self, steps: u64) {
        let (mut rng, mut acc) = (black_box(self.rng), 0u64);
        for _ in 0..steps {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let i = (rng & 511) as usize;
            if rng & 0x100 != 0 {
                self.state[i] = self.state[i].wrapping_add(rng);
            } else if rng & 0x200 != 0 {
                acc ^= self.state[i];
            } else {
                self.state[(i + 7) & 511] = acc.rotate_left(3);
            }
        }
        self.rng = black_box(rng ^ acc);
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB; 0 when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn read_stat_cpu() -> Option<(u64, u64)> {
    parse_stat_cpu(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// `(steal, total)` from the aggregate `cpu` line. The total counts
/// user, nice, system, idle, iowait, irq, softirq and steal; guest time
/// is already inside user and nice.
fn parse_stat_cpu(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

fn read_proc_cpu_s() -> Option<f64> {
    parse_proc_cpu_s(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// utime + stime (fields 14 and 15) of `/proc/self/stat`, in seconds.
/// The command name may contain spaces, so fields are counted from the
/// closing parenthesis.
fn parse_proc_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_formats() {
        assert_eq!(
            parse_stat_cpu("cpu  10 1 5 80 2 0 1 3 0 0\ncpu0 1 1 1 1 1 1 1 1 0 0\n"),
            Some((3, 102))
        );
        assert_eq!(parse_stat_cpu("intr 1 2 3\n"), None);
        let stat = "4242 (spb perf) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(parse_proc_cpu_s(stat), Some(3.0));
        assert_eq!(
            parse_vm_hwm_kb("VmPeak:\t 99 kB\nVmHWM:\t  2048 kB\n"),
            Some(2048)
        );
    }

    #[test]
    fn live_host_figures_are_sane() {
        let start = HostSample::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let noise = start.noise_since();
        assert!((0.0..=100.0).contains(&noise.steal_pct), "{noise:?}");
        assert!(noise.oncpu_ratio >= 0.0, "{noise:?}");
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn the_speed_gauge_scales_host_time_by_host_speed() {
        let mut gauge = SpeedGauge::new();
        assert_eq!(gauge.mean_speed(), 0.0);
        let speed = gauge.sample(0.02);
        assert!(speed > 0.0 && speed.is_finite(), "{speed}");
        let reference = gauge.reference_secs(0.05);
        assert!(reference > 0.0 && reference.is_finite(), "{reference}");
        assert!(gauge.mean_speed() > 0.0);
    }
}
