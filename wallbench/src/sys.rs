//! Process facts from `/proc`: CPU time and peak resident set.

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every Linux configuration this benchmark targets).
const USER_HZ: f64 = 100.0;

/// User and system CPU time of this process, in milliseconds.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Cpu {
    /// User time, ms.
    pub user_ms: f64,
    /// System (kernel) time, ms.
    pub sys_ms: f64,
}

impl Cpu {
    /// Reads `/proc/self/stat`; `None` where it does not exist.
    pub fn now() -> Option<Cpu> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        parse_stat(&stat)
    }

    /// User plus system time.
    pub fn total_ms(&self) -> f64 {
        self.user_ms + self.sys_ms
    }

    /// Time spent between `earlier` and `self`.
    pub fn since(&self, earlier: &Cpu) -> Cpu {
        Cpu {
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
        }
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) out of a stat line. The
/// command name in field 2 may hold spaces, so fields count from its `)`.
fn parse_stat(stat: &str) -> Option<Cpu> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(Cpu {
        user_ms: utime * 1000.0 / USER_HZ,
        sys_ms: stime * 1000.0 / USER_HZ,
    })
}

/// Host-wide CPU ticks from `/proc/stat`: `(steal, total)`. Steal is time
/// the hypervisor gave this machine's virtual CPUs to someone else.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user time.
    let total = ticks.iter().take(8).sum();
    Some((*ticks.get(7)?, total))
}

/// Share of host CPU time stolen between two [`host_ticks`] readings.
pub fn steal_frac(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> f64 {
    match (a, b) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_command_name() {
        let line = "4242 (my (odd) name) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0";
        let cpu = parse_stat(line).unwrap();
        assert_eq!(cpu.user_ms, 2500.0);
        assert_eq!(cpu.sys_ms, 750.0);
        assert_eq!(cpu.total_ms(), 3250.0);
    }
}
