//! Machine models and their textual description format.
//!
//! A [`MachineModel`] captures the resource side of a VLIW DSP datapath.
//! It is the one machine description of the workspace: list and
//! rotation scheduling, VLIW packing, bundling and exact modulo
//! scheduling all read it; a pass that does not model one of its fields
//! refuses a model that sets it. It records
//!
//! * per-[`OpClass`] **slot counts** — how many ops of a class may be in
//!   flight in the same cycle (an op occupies one unit of its class for
//!   its whole computation time); `unlimited` removes the cap,
//! * a VLIW **issue width** — how many ops may *start* in the same cycle
//!   (one long instruction word per cycle), and
//! * optional per-class **latency overrides** — replace every node's
//!   computation time of that class, modeling a machine whose multiplier
//!   (say) takes 2 cycles regardless of what the kernel claims.
//!
//! The textual format is line-oriented, in the style of the
//! `tests/corpus` case files:
//!
//! ```text
//! # cred machine v1
//! name scalar
//! issue-width 1
//! class alu units 1
//! class mac units 1 latency 2
//! ```
//!
//! Every directive is optional except the header; an unmentioned class
//! has unlimited units and no latency override, and an absent
//! `issue-width` means unlimited issue. `units`/`issue-width` accept
//! `unlimited`. The committed machine files live in `machines/` and are
//! pinned to the [built-in models](MachineModel::builtin) by test.

use crate::{Dfg, NodeId, OpClass, OP_CLASSES};
use std::borrow::Cow;
use std::fmt;

/// A machine description: the resource constraints every scheduler and
/// packer solves under. See the module docs for the textual format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineModel {
    /// Display name (from the `name` directive; not part of the
    /// [fingerprint](MachineModel::fingerprint), like DFG node names).
    pub name: String,
    /// Max ops issued per cycle; `None` = unlimited.
    pub issue_width: Option<u32>,
    units: [Option<u32>; OP_CLASSES],
    latency: [Option<u32>; OP_CLASSES],
}

impl MachineModel {
    /// The machine with no constraints at all: unlimited units of every
    /// class, unlimited issue width, no latency overrides. On this model
    /// the exact scheduler must agree bit-identically with the retiming
    /// solvers (the headline differential-test surface).
    pub fn unconstrained() -> Self {
        MachineModel {
            name: "unconstrained".into(),
            issue_width: None,
            units: [None; OP_CLASSES],
            latency: [None; OP_CLASSES],
        }
    }

    /// A machine with `alu` ALUs and `mac` multiply-accumulate units, no
    /// issue cap and no latency override.
    ///
    /// # Panics
    /// Panics if either count is 0, like [`set_units`](Self::set_units).
    pub fn with_units(alu: u32, mac: u32) -> Self {
        let mut m = MachineModel::unconstrained();
        m.name = format!("alu{alu}-mac{mac}");
        m.set_units(OpClass::Alu, Some(alu));
        m.set_units(OpClass::Mac, Some(mac));
        m
    }

    /// Names of the built-in models, in a stable order.
    pub const BUILTIN_NAMES: [&'static str; 4] = ["unconstrained", "scalar", "vliw2", "vliw4"];

    /// A built-in model by name. The same models are committed as
    /// `machines/<name>.mach`; a test pins the two representations
    /// together.
    pub fn builtin(name: &str) -> Option<MachineModel> {
        let mut m = MachineModel::unconstrained();
        m.name = name.into();
        match name {
            "unconstrained" => {}
            // A single-issue DSP core: one ALU, one MAC, one op per cycle.
            "scalar" => {
                m.issue_width = Some(1);
                m.units = [Some(1), Some(1)];
            }
            // A 2-wide VLIW with a 2-cycle multiplier pipeline.
            "vliw2" => {
                m.issue_width = Some(2);
                m.units = [Some(1), Some(1)];
                m.latency[OpClass::Mac.index()] = Some(2);
            }
            // A 4-wide VLIW with duplicated units.
            "vliw4" => {
                m.issue_width = Some(4);
                m.units = [Some(2), Some(2)];
            }
            _ => return None,
        }
        Some(m)
    }

    /// Every built-in model, in [`MachineModel::BUILTIN_NAMES`] order.
    pub fn builtins() -> Vec<MachineModel> {
        Self::BUILTIN_NAMES
            .iter()
            .map(|n| Self::builtin(n).expect("builtin name"))
            .collect()
    }

    /// Units available for `class`; `None` = unlimited.
    #[inline]
    pub fn units(&self, class: OpClass) -> Option<u32> {
        self.units[class.index()]
    }

    /// Set the unit count for `class` (`None` = unlimited).
    ///
    /// # Panics
    /// Panics on `Some(0)` — nothing of that class could ever run.
    pub fn set_units(&mut self, class: OpClass, units: Option<u32>) {
        assert!(units != Some(0), "unit count must be at least 1");
        self.units[class.index()] = units;
    }

    /// Latency override for `class`; `None` = use each node's own time.
    #[inline]
    pub fn latency_override(&self, class: OpClass) -> Option<u32> {
        self.latency[class.index()]
    }

    /// Set the latency override for `class`.
    ///
    /// # Panics
    /// Panics on `Some(0)` — computation times are `>= 1`.
    pub fn set_latency(&mut self, class: OpClass, latency: Option<u32>) {
        assert!(latency != Some(0), "latency override must be at least 1");
        self.latency[class.index()] = latency;
    }

    /// The computation time of node `v` *on this machine*: the class
    /// latency override if present, the node's own time otherwise.
    #[inline]
    pub fn op_time(&self, g: &Dfg, v: NodeId) -> u32 {
        let n = g.node(v);
        self.latency[n.op.class().index()].unwrap_or(n.time)
    }

    /// `g` with every node's time replaced by its time on this machine
    /// ([`op_time`](Self::op_time)): borrowed unchanged when no class has
    /// a latency override, a copy with the overridden times otherwise.
    /// Edge ids and node ids are the same in both graphs.
    pub fn effective_graph<'g>(&self, g: &'g Dfg) -> Cow<'g, Dfg> {
        if self.latency.iter().all(Option::is_none) {
            return Cow::Borrowed(g);
        }
        let mut eg = g.clone();
        for v in g.node_ids() {
            eg.node_mut(v).time = self.op_time(g, v);
        }
        Cow::Owned(eg)
    }

    /// True if this model constrains nothing (and therefore the exact
    /// scheduler degenerates to the retiming solvers).
    pub fn is_unconstrained(&self) -> bool {
        self.issue_width.is_none()
            && self.units.iter().all(Option::is_none)
            && self.latency.iter().all(Option::is_none)
    }

    /// Structural 64-bit fingerprint (FNV-1a over every constraint,
    /// ignoring the name), for cache/coalescing keys alongside
    /// `Dfg::fingerprint`.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut word = |w: u64| {
            for byte in w.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(PRIME);
            }
        };
        let enc = |o: Option<u32>| o.map_or(u64::MAX, |v| v as u64);
        word(enc(self.issue_width));
        for i in 0..OP_CLASSES {
            word(enc(self.units[i]));
            word(enc(self.latency[i]));
        }
        h
    }

    /// Parse the textual machine-description format. See module docs.
    pub fn parse(text: &str) -> Result<MachineModel, MachineParseError> {
        let err = |line: usize, msg: String| Err(MachineParseError { line, msg });
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, l)) if l.trim() == "# cred machine v1" => {}
            _ => return err(1, "missing header line \"# cred machine v1\"".into()),
        }
        let mut m = MachineModel::unconstrained();
        m.name = "anonymous".into();
        let mut seen_class = [false; OP_CLASSES];
        let mut seen_width = false;
        let mut seen_name = false;
        for (i, raw) in lines {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tok = line.split_whitespace();
            let parse_count =
                |word: Option<&str>, what: &str| -> Result<Option<u32>, MachineParseError> {
                    match word {
                        Some("unlimited") => Ok(None),
                        Some(w) => match w.parse::<u32>() {
                            Ok(n) if n >= 1 => Ok(Some(n)),
                            Ok(_) => Err(MachineParseError {
                                line: lineno,
                                msg: format!("{what} must be at least 1"),
                            }),
                            Err(_) => Err(MachineParseError {
                                line: lineno,
                                msg: format!("bad {what} {w:?}"),
                            }),
                        },
                        None => Err(MachineParseError {
                            line: lineno,
                            msg: format!("missing {what}"),
                        }),
                    }
                };
            match tok.next() {
                Some("name") => {
                    if seen_name {
                        return err(lineno, "duplicate name directive".into());
                    }
                    seen_name = true;
                    match tok.next() {
                        Some(n) => m.name = n.to_string(),
                        None => return err(lineno, "missing machine name".into()),
                    }
                }
                Some("issue-width") => {
                    if seen_width {
                        return err(lineno, "duplicate issue-width directive".into());
                    }
                    seen_width = true;
                    m.issue_width = parse_count(tok.next(), "issue width")?;
                }
                Some("class") => {
                    let class = match tok.next().and_then(OpClass::parse) {
                        Some(c) => c,
                        None => return err(lineno, "expected a class name (alu, mac)".into()),
                    };
                    if seen_class[class.index()] {
                        return err(lineno, format!("duplicate class {class} directive"));
                    }
                    seen_class[class.index()] = true;
                    match tok.next() {
                        Some("units") => {}
                        _ => return err(lineno, "expected \"units\" after the class name".into()),
                    }
                    m.units[class.index()] = parse_count(tok.next(), "unit count")?;
                    match tok.next() {
                        None => {}
                        Some("latency") => {
                            let lat = parse_count(tok.next(), "latency")?;
                            if lat.is_none() {
                                return err(lineno, "latency cannot be unlimited".into());
                            }
                            m.latency[class.index()] = lat;
                        }
                        Some(w) => return err(lineno, format!("unexpected token {w:?}")),
                    }
                }
                Some(d) => return err(lineno, format!("unknown directive {d:?}")),
                None => unreachable!("blank lines are skipped"),
            }
            if let Some(extra) = tok.next() {
                return err(lineno, format!("trailing token {extra:?}"));
            }
        }
        Ok(m)
    }

    /// Canonical textual form; `parse(to_text(m))` round-trips `m`.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("# cred machine v1\n");
        let _ = writeln!(s, "name {}", self.name);
        match self.issue_width {
            Some(w) => {
                let _ = writeln!(s, "issue-width {w}");
            }
            None => {
                let _ = writeln!(s, "issue-width unlimited");
            }
        }
        for class in OpClass::ALL {
            let _ = write!(s, "class {class} units ");
            match self.units[class.index()] {
                Some(u) => {
                    let _ = write!(s, "{u}");
                }
                None => {
                    let _ = write!(s, "unlimited");
                }
            }
            if let Some(l) = self.latency[class.index()] {
                let _ = write!(s, " latency {l}");
            }
            s.push('\n');
        }
        s
    }
}

/// Error from [`MachineModel::parse`], with the 1-based offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for MachineParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "machine description line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for MachineParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_parse_round_trip() {
        for m in MachineModel::builtins() {
            let text = m.to_text();
            assert_eq!(MachineModel::parse(&text).unwrap(), m, "{text}");
        }
    }

    #[test]
    fn with_units_caps_units_only() {
        let m = MachineModel::with_units(4, 2);
        assert_eq!(m.units(OpClass::Alu), Some(4));
        assert_eq!(m.units(OpClass::Mac), Some(2));
        assert_eq!(m.issue_width, None);
        assert!(OpClass::ALL
            .iter()
            .all(|&c| m.latency_override(c).is_none()));
        assert_eq!(MachineModel::parse(&m.to_text()).unwrap(), m);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn with_units_rejects_zero() {
        let _ = MachineModel::with_units(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn set_units_rejects_zero() {
        MachineModel::unconstrained().set_units(OpClass::Mac, Some(0));
    }

    #[test]
    fn unconstrained_is_unconstrained() {
        assert!(MachineModel::unconstrained().is_unconstrained());
        for name in ["scalar", "vliw2", "vliw4"] {
            assert!(!MachineModel::builtin(name).unwrap().is_unconstrained());
        }
        assert_eq!(MachineModel::builtin("tms320"), None);
    }

    #[test]
    fn fingerprint_ignores_name_sees_structure() {
        let mut a = MachineModel::builtin("scalar").unwrap();
        let b = MachineModel::builtin("scalar").unwrap();
        a.name = "renamed".into();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = b.clone();
        c.set_units(OpClass::Alu, Some(2));
        assert_ne!(b.fingerprint(), c.fingerprint());
        let mut d = b.clone();
        d.set_latency(OpClass::Mac, Some(2));
        assert_ne!(b.fingerprint(), d.fingerprint());
        assert_ne!(MachineModel::unconstrained().fingerprint(), b.fingerprint());
    }

    #[test]
    fn op_time_prefers_override() {
        use crate::{DfgBuilder, OpKind};
        let mut b = DfgBuilder::new();
        let a = b.node("A", 3, OpKind::Add(0));
        let m1 = b.node("M", 3, OpKind::Mul(0));
        b.edge(a, m1, 1);
        let g = b.build().unwrap();
        let vliw2 = MachineModel::builtin("vliw2").unwrap();
        assert_eq!(vliw2.op_time(&g, a), 3); // no alu override
        assert_eq!(vliw2.op_time(&g, m1), 2); // mac latency 2
        let un = MachineModel::unconstrained();
        assert_eq!(un.op_time(&g, m1), 3);
        assert!(matches!(un.effective_graph(&g), Cow::Borrowed(_)));
        let eg = vliw2.effective_graph(&g);
        assert_eq!((eg.node(a).time, eg.node(m1).time), (3, 2));
    }

    #[test]
    fn parse_rejects_malformed() {
        let cases = [
            ("no header", "name x\n"),
            ("unknown directive", "# cred machine v1\nwidgets 3\n"),
            ("bad class", "# cred machine v1\nclass fpu units 1\n"),
            ("zero units", "# cred machine v1\nclass alu units 0\n"),
            ("missing units kw", "# cred machine v1\nclass alu 1\n"),
            (
                "dup class",
                "# cred machine v1\nclass alu units 1\nclass alu units 2\n",
            ),
            (
                "dup width",
                "# cred machine v1\nissue-width 1\nissue-width 2\n",
            ),
            (
                "unlimited latency",
                "# cred machine v1\nclass mac units 1 latency unlimited\n",
            ),
            ("trailing", "# cred machine v1\nissue-width 2 cores\n"),
        ];
        for (what, text) in cases {
            assert!(MachineModel::parse(text).is_err(), "{what} should fail");
        }
    }

    #[test]
    fn parse_accepts_comments_and_defaults() {
        let m =
            MachineModel::parse("# cred machine v1\n\n# a comment\nclass mac units 1\n").unwrap();
        assert_eq!(m.name, "anonymous");
        assert_eq!(m.issue_width, None);
        assert_eq!(m.units(OpClass::Alu), None);
        assert_eq!(m.units(OpClass::Mac), Some(1));
        assert_eq!(m.latency_override(OpClass::Mac), None);
    }
}
