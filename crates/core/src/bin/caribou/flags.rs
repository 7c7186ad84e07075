//! Declared command lines: a subcommand is a [`Command`] row — operands,
//! a table of [`Flag`]s (name, value type, default, one-line help) and the
//! function that runs it. [`Command::parse`] is the only code that reads
//! the argument list: it checks the arguments against the table once,
//! yielding typed values, and names the offending flag when one is
//! unknown, repeated, or has a missing or unparsable value. The usage
//! synopsis and the `--help` text are rendered from the same rows, so the
//! help cannot list a flag the parser rejects or omit one it accepts.

use std::fmt::Write as _;

/// The value a flag takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// A non-negative integer.
    Int,
    /// An integer of at least 1.
    Count,
    /// A finite real number.
    Real,
    /// A finite real number above 0: a length, a count or a rate.
    Positive,
    /// Free text, shown in the help under this placeholder.
    Text(&'static str),
}

/// One row of a command's flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    pub name: &'static str,
    pub kind: Kind,
    /// Value when the flag is absent; `""` leaves it unset.
    pub default: &'static str,
    pub help: &'static str,
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    On,
    Int(u64),
    Real(f64),
    Text(String),
}

/// One subcommand: what it takes and what runs it.
pub struct Command {
    pub name: &'static str,
    pub about: &'static str,
    /// Positional operands in order; a `[bracketed]` one may be omitted.
    pub operands: &'static [&'static str],
    pub flags: &'static [Flag],
    /// Free text appended to the command's `--help`.
    pub notes: &'static str,
    pub run: fn(&Parsed) -> Result<(), crate::CliError>,
}

/// A command line checked against its command's table: the operands and
/// every flag's typed value (given or default).
#[derive(Debug)]
pub struct Parsed {
    flags: &'static [Flag],
    pub operands: Vec<String>,
    values: Vec<(&'static str, Value)>,
}

impl Kind {
    fn placeholder(self) -> &'static str {
        match self {
            Kind::Switch => "",
            Kind::Int | Kind::Count => "N",
            Kind::Real | Kind::Positive => "X",
            Kind::Text(placeholder) => placeholder,
        }
    }

    fn parse(self, raw: &str) -> Result<Value, String> {
        match self {
            Kind::Switch => Ok(Value::On),
            Kind::Int => raw.parse().map(Value::Int).map_err(|e| format!("{e}")),
            Kind::Count => match raw.parse() {
                Ok(0) => Err("must be at least 1".into()),
                Ok(n) => Ok(Value::Int(n)),
                Err(e) => Err(format!("{e}")),
            },
            Kind::Real => match raw.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Value::Real(x)),
                Ok(_) => Err("must be finite".into()),
                Err(e) => Err(format!("{e}")),
            },
            Kind::Positive => match Kind::Real.parse(raw)? {
                Value::Real(x) if x > 0.0 => Ok(Value::Real(x)),
                _ => Err("must be positive".into()),
            },
            Kind::Text(_) => Ok(Value::Text(raw.to_string())),
        }
    }
}

impl Command {
    /// Checks `args` against the table; `Ok(None)` asks for the help.
    pub fn parse(&self, args: &[String]) -> Result<Option<Parsed>, String> {
        let mut operands = Vec::new();
        let mut values: Vec<(&'static str, Value)> = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            if !arg.starts_with("--") {
                operands.push(arg.clone());
                continue;
            }
            let Some(flag) = self.flags.iter().find(|f| f.name == arg) else {
                let name = self.name;
                return Err(format!(
                    "{arg}: unknown flag (`caribou {name} --help` lists them)"
                ));
            };
            if values.iter().any(|(name, _)| *name == flag.name) {
                return Err(format!("{arg}: given more than once"));
            }
            let value = match flag.kind {
                Kind::Switch => Value::On,
                kind => {
                    let raw = args
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("{arg}: missing value"))?;
                    kind.parse(raw).map_err(|e| format!("{arg}: {e}"))?
                }
            };
            values.push((flag.name, value));
        }
        for flag in self.flags {
            if !flag.default.is_empty() && !values.iter().any(|(name, _)| *name == flag.name) {
                let value = flag.kind.parse(flag.default).expect("table default parses");
                values.push((flag.name, value));
            }
        }
        if let Some(extra) = operands.get(self.operands.len()) {
            return Err(format!(
                "unexpected argument `{extra}` (usage: {})",
                self.synopsis()
            ));
        }
        match self.operands.get(operands.len()) {
            Some(missing) if !missing.starts_with('[') => {
                Err(format!("missing {missing} (usage: {})", self.synopsis()))
            }
            _ => Ok(Some(Parsed {
                flags: self.flags,
                operands,
                values,
            })),
        }
    }

    /// The command and its operands, as the help shows them.
    pub fn synopsis(&self) -> String {
        format!("caribou {} {}", self.name, self.operands.join(" "))
            .trim_end()
            .to_string()
    }

    /// The text of `caribou <command> --help`.
    pub fn help(&self) -> String {
        let mut out = format!("{} — {}\n", self.synopsis(), self.about);
        if !self.flags.is_empty() {
            out.push_str("\nFLAGS:\n");
        }
        for f in self.flags {
            let shown = format!("{} {}", f.name, f.kind.placeholder());
            let _ = write!(out, "    {shown:<30}{}", f.help);
            if !f.default.is_empty() {
                let _ = write!(out, " (default {})", f.default);
            }
            out.push('\n');
        }
        out.push_str(self.notes);
        out
    }
}

impl Parsed {
    /// A flag's value, if it was given or has a default. Asking for a flag
    /// the command's table does not declare is a bug in the caller.
    fn value(&self, name: &str) -> Option<&Value> {
        assert!(
            self.flags.iter().any(|f| f.name == name),
            "{name} is not in the command's flag table"
        );
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Whether a switch is on, or a valued flag has a value.
    pub fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    pub fn int(&self, name: &str) -> u64 {
        match self.value(name) {
            Some(Value::Int(n)) => *n,
            other => panic!("{name} is no integer flag with a default: {other:?}"),
        }
    }

    pub fn count(&self, name: &str) -> usize {
        usize::try_from(self.int(name)).unwrap_or(usize::MAX)
    }

    pub fn real(&self, name: &str) -> f64 {
        match self.value(name) {
            Some(Value::Real(x)) => *x,
            other => panic!("{name} is no real flag with a default: {other:?}"),
        }
    }

    pub fn text(&self, name: &str) -> Option<&str> {
        match self.value(name)? {
            Value::Text(s) => Some(s),
            other => panic!("{name} is no text flag: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn help_lists_exactly_the_table_and_every_default_parses() {
        for command in crate::COMMANDS {
            let help = command.help();
            let listed: Vec<&str> = help
                .lines()
                .filter(|l| l.starts_with("    --"))
                .map(|l| l.split_whitespace().next().unwrap())
                .collect();
            let table: Vec<&str> = command.flags.iter().map(|f| f.name).collect();
            assert_eq!(listed, table, "{}", command.name);
            let operands: Vec<String> = command.operands.iter().map(|_| "x".into()).collect();
            assert!(command.parse(&operands).is_ok(), "{}", command.name);
        }
    }
}
