//! Inferno-compatible folded-stack export.
//!
//! One line per `op-class;segment` pair, weight = total nanoseconds
//! attributed, summed over every profiled operation. Feed the output to
//! any flamegraph renderer that accepts Brendan Gregg's folded format
//! (`inferno-flamegraph`, `flamegraph.pl`).

use crate::profile::Profile;
use crate::segment::Segment;
use genima_obs::OpClass;

/// Renders `profile` as folded stacks: `class;segment <ns>` lines in
/// stable (class, segment) order, zero-weight pairs omitted. Returns an
/// empty string for a profile with no attributed operations.
pub fn folded_stacks(profile: &Profile) -> String {
    let by_class = profile.by_class();
    let mut out = String::new();
    for class in OpClass::ALL {
        let Some(summary) = by_class.get(&class) else {
            continue;
        };
        for seg in Segment::ALL {
            let ns = summary.breakdown.get(seg).as_ns();
            if ns == 0 {
                continue;
            }
            out.push_str(class.name());
            out.push(';');
            out.push_str(seg.name());
            out.push(' ');
            out.push_str(&ns.to_string());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile;
    use genima_obs::{op_fetch_id, ObsReport, SpanKind, SpanRecord, Track};
    use genima_sim::{Dur, Time};

    #[test]
    fn folded_lines_are_class_semicolon_segment() {
        let f = op_fetch_id(1);
        let mk = |kind, start: u64, end: u64| SpanRecord {
            kind,
            node: 0,
            track: Track::Host,
            start: Time::from_ns(start),
            dur: Dur::from_ns(end - start),
            arg: 0,
            flow: None,
            op: f,
        };
        let p = profile(&ObsReport {
            spans: vec![
                mk(SpanKind::PageFetch, 0, 100),
                mk(SpanKind::Interrupt, 10, 30),
            ],
            dropped: 0,
        });
        let s = folded_stacks(&p);
        assert_eq!(s, "fetch;interrupt 20\nfetch;queue_retry 80\n");
    }

    #[test]
    fn empty_profile_renders_empty() {
        let p = profile(&ObsReport {
            spans: vec![],
            dropped: 0,
        });
        assert_eq!(folded_stacks(&p), "");
    }
}
