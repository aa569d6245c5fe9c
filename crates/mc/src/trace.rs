//! Replayable counterexamples.
//!
//! A [`ScheduleTrace`] packages everything needed to reproduce one
//! violating schedule on a different machine or a later build: the
//! litmus and protocol column, any seeded mutation, the minimized
//! forced pick prefix, the full step list, and the oracle's verdict.
//! [`ScheduleTrace::verify`] re-executes the prefix (FIFO from there)
//! and demands a *bit-identical* reproduction — same violation string,
//! same channel picked at every step, same event labels.

use genima_obs::Json;
use genima_proto::{ChanKey, Column, Mutation};

use crate::explore::{Config, Explorer, Step};
use crate::litmus;

/// A serialized, replayable counterexample.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleTrace {
    /// Litmus name (see [`crate::litmus::corpus`]).
    pub litmus: String,
    /// Protocol column name (e.g. `GeNIMA`).
    pub column: String,
    /// Seeded mutation, if the run was a mutant hunt.
    pub mutation: Option<String>,
    /// The oracle's verdict string.
    pub violation: String,
    /// Minimized forced pick prefix.
    pub prefix: Vec<ChanKey>,
    /// Every step of the violating schedule (prefix + FIFO suffix).
    pub steps: Vec<Step>,
}

/// Parses the `Display` form of a [`ChanKey`] (e.g. `wire:0>1`,
/// `mem:1<0`, `proc:2`).
pub fn parse_key(s: &str) -> Option<ChanKey> {
    let (kind, rest) = s.split_once(':')?;
    let one = |r: &str| r.parse::<usize>().ok();
    match kind {
        "wire" => {
            let (a, b) = rest.split_once('>')?;
            Some(ChanKey::Wire {
                src: one(a)?,
                dst: one(b)?,
            })
        }
        "mem" => {
            let (a, b) = rest.split_once('<')?;
            Some(ChanKey::Mem {
                nic: one(a)?,
                src: one(b)?,
            })
        }
        "fetch" => Some(ChanKey::Fetch { nic: one(rest)? }),
        "lock" => Some(ChanKey::Lock { nic: one(rest)? }),
        "coll" => Some(ChanKey::Coll { nic: one(rest)? }),
        "atom" => Some(ChanKey::Atomic { nic: one(rest)? }),
        "proc" => Some(ChanKey::Proc { proc: one(rest)? }),
        "hnd" => Some(ChanKey::Handler { node: one(rest)? }),
        _ => None, // lint: allow-wildcard — open set of input strings
    }
}

impl ScheduleTrace {
    /// Packages a violation found by an [`Explorer`].
    pub fn new(
        litmus: &str,
        column: &str,
        mutation: Option<Mutation>,
        v: &crate::explore::Violation,
    ) -> ScheduleTrace {
        ScheduleTrace {
            litmus: litmus.to_string(),
            column: column.to_string(),
            mutation: mutation.map(|m| m.name().to_string()),
            violation: v.desc.clone(),
            prefix: v.prefix.clone(),
            steps: v.steps.clone(),
        }
    }

    /// Serializes to the `schedule_trace` JSON shape.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("kind", Json::str("schedule_trace"));
        o.set("litmus", Json::str(&self.litmus));
        o.set("column", Json::str(&self.column));
        match &self.mutation {
            Some(m) => o.set("mutation", Json::str(m)),
            None => o.set("mutation", Json::Null),
        };
        o.set("violation", Json::str(&self.violation));
        o.set(
            "prefix",
            Json::Arr(
                self.prefix
                    .iter()
                    .map(|k| Json::str(k.to_string()))
                    .collect(),
            ),
        );
        o.set(
            "steps",
            Json::Arr(
                self.steps
                    .iter()
                    .map(|s| {
                        let mut e = Json::obj();
                        e.set("key", Json::str(s.key.to_string()));
                        e.set("label", Json::str(&s.label));
                        e
                    })
                    .collect(),
            ),
        );
        o
    }

    /// Serializes to JSON text.
    pub fn dump(&self) -> String {
        self.to_json().dump()
    }

    /// Deserializes the `schedule_trace` JSON shape.
    pub fn from_json(j: &Json) -> Result<ScheduleTrace, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("missing field `{k}`"));
        let text = |k: &str| {
            field(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field `{k}` must be a string"))
        };
        if text("kind")? != "schedule_trace" {
            return Err("kind must be `schedule_trace`".into());
        }
        let mutation = match field("mutation")? {
            Json::Null => None,
            m => Some(
                m.as_str()
                    .map(str::to_string)
                    .ok_or("field `mutation` must be a string or null")?,
            ),
        };
        let prefix = field("prefix")?
            .as_arr()
            .ok_or("field `prefix` must be an array")?
            .iter()
            .map(|k| {
                k.as_str()
                    .and_then(parse_key)
                    .ok_or_else(|| format!("bad channel key {}", k.dump()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let steps = field("steps")?
            .as_arr()
            .ok_or("field `steps` must be an array")?
            .iter()
            .map(|s| {
                let key = s
                    .get("key")
                    .and_then(Json::as_str)
                    .and_then(parse_key)
                    .ok_or("step missing a valid `key`")?;
                let label = s
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or("step missing `label`")?
                    .to_string();
                Ok::<Step, String>(Step { key, label })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ScheduleTrace {
            litmus: text("litmus")?,
            column: text("column")?,
            mutation,
            violation: text("violation")?,
            prefix,
            steps,
        })
    }

    /// Deserializes from JSON text.
    pub fn parse(text: &str) -> Result<ScheduleTrace, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        ScheduleTrace::from_json(&j)
    }

    /// Builds the explorer this trace belongs to.
    fn explorer(&self) -> Result<Explorer, String> {
        let l = litmus::by_name(&self.litmus)
            .ok_or_else(|| format!("unknown litmus `{}`", self.litmus))?;
        let f = Column::by_name(&self.column)
            .ok_or_else(|| format!("unknown column `{}`", self.column))?;
        let mut e = Explorer::new(l, f, Config::default());
        if let Some(m) = &self.mutation {
            let m = Mutation::parse(m).ok_or_else(|| format!("unknown mutation `{m}`"))?;
            e = e.with_mutation(m);
        }
        Ok(e)
    }

    /// Re-executes the trace and demands a bit-identical reproduction:
    /// the replay must yield the same violation string and the same
    /// (channel, label) at every step.
    pub fn verify(&self) -> Result<(), String> {
        let (steps, desc) = self.explorer()?.replay(&self.prefix);
        match desc {
            None => return Err("replay completed without any violation".into()),
            Some(d) if d != self.violation => {
                return Err(format!(
                    "replay violation differs:\n  recorded: {}\n  replayed: {d}",
                    self.violation
                ))
            }
            Some(_) => {}
        }
        if steps.len() != self.steps.len() {
            return Err(format!(
                "replay ran {} steps, trace recorded {}",
                steps.len(),
                self.steps.len()
            ));
        }
        for (i, (got, want)) in steps.iter().zip(&self.steps).enumerate() {
            if got != want {
                return Err(format!(
                    "replay diverged at step {i}: got {} `{}`, recorded {} `{}`",
                    got.key, got.label, want.key, want.label
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_display_roundtrips() {
        let keys = [
            ChanKey::Wire { src: 0, dst: 3 },
            ChanKey::Mem { nic: 2, src: 1 },
            ChanKey::Fetch { nic: 1 },
            ChanKey::Lock { nic: 0 },
            ChanKey::Coll { nic: 2 },
            ChanKey::Atomic { nic: 1 },
            ChanKey::Proc { proc: 5 },
            ChanKey::Handler { node: 3 },
        ];
        for k in keys {
            assert_eq!(parse_key(&k.to_string()), Some(k));
        }
        assert_eq!(parse_key("bogus:1"), None);
        assert_eq!(parse_key("wire:1"), None);
    }

    #[test]
    fn trace_json_roundtrips() {
        let t = ScheduleTrace {
            litmus: "mp".into(),
            column: "GeNIMA".into(),
            mutation: Some("reorder-write-notice".into()),
            violation: "audit: something".into(),
            prefix: vec![ChanKey::Proc { proc: 0 }, ChanKey::Wire { src: 0, dst: 1 }],
            steps: vec![
                Step {
                    key: ChanKey::Proc { proc: 0 },
                    label: "resume p0".into(),
                },
                Step {
                    key: ChanKey::Wire { src: 0, dst: 1 },
                    label: "pkt".into(),
                },
            ],
        };
        let back = ScheduleTrace::parse(&t.dump()).expect("roundtrip");
        assert_eq!(back, t);
        let none = ScheduleTrace {
            mutation: None,
            ..t
        };
        assert_eq!(ScheduleTrace::parse(&none.dump()).expect("roundtrip"), none);
    }
}
