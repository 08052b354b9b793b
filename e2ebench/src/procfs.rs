//! Readers for the few `/proc` figures the benchmark reports: process
//! CPU time, peak RSS and thread count, and the host's TIME_WAIT
//! population. Parsers take the file text so they test on fixed strings.

use std::fs;

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, 100 per
/// second on every mainstream architecture.
const TICK_US: u64 = 10_000;

/// Process CPU time in microseconds: `(user, system)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cpu {
    pub user_us: u64,
    pub sys_us: u64,
}

impl Cpu {
    pub fn now() -> Cpu {
        fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user_us: self.user_us.saturating_sub(earlier.user_us),
            sys_us: self.sys_us.saturating_sub(earlier.sys_us),
        }
    }

    pub fn total_us(self) -> u64 {
        self.user_us + self.sys_us
    }
}

/// `utime` and `stime` (fields 14 and 15) of a `/proc/<pid>/stat` line.
/// The command name may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<Cpu> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11); // state is field 3
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Cpu {
        user_us: utime * TICK_US,
        sys_us: stime * TICK_US,
    })
}

/// The numeric value of `key:` in a `/proc/<pid>/status` text
/// (`VmHWM` in kB, `Threads` as a count).
pub fn parse_status(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// The `tw` (TIME_WAIT) count on the `TCP:` line of `/proc/net/sockstat`.
pub fn parse_sockstat_tw(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("TCP:"))?;
    let mut it = line.split_whitespace();
    while let Some(word) = it.next() {
        if word == "tw" {
            return it.next()?.parse().ok();
        }
    }
    None
}

fn status(key: &str) -> Option<u64> {
    parse_status(&fs::read_to_string("/proc/self/status").ok()?, key)
}

/// Peak resident set size in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    status("VmHWM").map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

pub fn threads() -> u64 {
    status("Threads").unwrap_or(0)
}

pub fn tcp_time_wait() -> u64 {
    fs::read_to_string("/proc/net/sockstat")
        .ok()
        .and_then(|s| parse_sockstat_tw(&s))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let line = "4242 (e2e (x) b) S 1 4242 4242 0 -1 4194560 1523 0 0 0 \
                    731 129 0 0 20 0 9 0 123456 98765432 2048 18446744073709551615";
        assert_eq!(
            parse_stat(line),
            Some(Cpu {
                user_us: 7_310_000,
                sys_us: 1_290_000
            })
        );
        assert_eq!(parse_stat("12 (short) S 1 2"), None);
        assert_eq!(parse_stat("no paren at all"), None);
    }

    #[test]
    fn status_keys_parse() {
        let text = "Name:\te2ebench\nVmPeak:\t  200000 kB\nVmHWM:\t   12345 kB\n\
                    VmRSS:\t   10000 kB\nThreads:\t17\n";
        assert_eq!(parse_status(text, "VmHWM"), Some(12345));
        assert_eq!(parse_status(text, "Threads"), Some(17));
        assert_eq!(parse_status(text, "VmSwap"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(parse_status("VmHWMx:\t5 kB\n", "VmHWM"), None);
    }

    #[test]
    fn sockstat_time_wait_parses() {
        let text = "sockets: used 17\nTCP: inuse 4 orphan 0 tw 9123 alloc 4 mem 2\n\
                    UDP: inuse 0 mem 0\n";
        assert_eq!(parse_sockstat_tw(text), Some(9123));
        assert_eq!(parse_sockstat_tw("sockets: used 1\n"), None);
    }

    #[test]
    fn cpu_deltas_saturate() {
        let a = Cpu {
            user_us: 10,
            sys_us: 5,
        };
        let b = Cpu {
            user_us: 30,
            sys_us: 4,
        };
        assert_eq!(b.since(a).total_us(), 20);
    }
}
