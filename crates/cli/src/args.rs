//! The flag tables `dbselect` is parsed and documented from.
//!
//! Each command declares its flags once, in a static [`Command`]: one
//! [`Flag`] row per flag, holding its spellings, the name of the value it
//! takes, a help line, and a setter that parses the value into the
//! command's options. [`Command::parse`] reads the table, and
//! [`Invoke::usage`] renders the command's `--help` from the same table.

use std::fmt::Write as _;
use std::str::FromStr;
use std::time::Duration;

/// Parses one argument into a command's options.
pub type Setter<O> = fn(&mut O, &str) -> Result<(), String>;

/// What running a command comes to.
pub type Outcome = Result<(), Box<dyn std::error::Error>>;

/// Whether a command needs a flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Need {
    Optional,
    Required,
    /// Exactly one of the command's `OneOf` flags must be given.
    OneOf,
    /// Optional, and applies only beside the flag spelled so: given
    /// without it, the command fails rather than ignore the flag.
    With(&'static str),
}

/// One row of a flag table: whether the command needs the flag, its
/// spellings (`["-k", "--k"]`), the name of its value in help (empty for
/// a switch, which takes none), one line of help, and the setter that
/// parses its value (`""` for a switch) into the command's options.
pub type Flag<O> = (
    Need,
    &'static [&'static str],
    &'static str,
    &'static str,
    Setter<O>,
);

/// The flag as a synopsis spells it: its first name and its value.
fn synopsis<O>((_, names, value, ..): &Flag<O>) -> String {
    format!("{} {value}", names[0]).trim_end().to_string()
}

/// One command: its flag table, its positional arguments (at least one
/// is required when it takes them), and what it runs.
pub struct Command<O: 'static> {
    /// The command's name (`dbselect <name>`).
    pub name: &'static str,
    /// One line saying what it does.
    pub about: &'static str,
    /// Every flag it accepts.
    pub flags: &'static [Flag<O>],
    /// The positional arguments' name in help, and their setter.
    pub positional: Option<(&'static str, Setter<O>)>,
    /// Runs the command on its parsed options.
    pub run: fn(O) -> Outcome,
}

impl<O: Default + 'static> Command<O> {
    /// Parse `args` (the words after the command name) into options.
    pub fn parse(&self, args: &[String]) -> Result<O, String> {
        let name = self.name;
        let fail = |e: String| format!("dbselect {name}: {e}");
        let mut options = O::default();
        let mut seen = vec![false; self.flags.len()];
        let mut positionals = 0;
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let found = self.flags.iter().position(|f| f.1.contains(&&**arg));
            if let Some(i) = found {
                let (_, _, value, _, set) = self.flags[i];
                let value = match value {
                    "" => "",
                    value => args
                        .next()
                        .ok_or_else(|| fail(format!("{arg} needs a value ({value})")))?,
                };
                set(&mut options, value).map_err(|e| fail(format!("{arg}: {e}")))?;
                seen[i] = true;
            } else if let (Some((_, set)), false) = (self.positional, arg.starts_with('-')) {
                set(&mut options, arg).map_err(fail)?;
                positionals += 1;
            } else {
                let help = format!("(see `dbselect {name} --help`)");
                return Err(fail(format!("unknown option `{arg}` {help}")));
            }
        }
        let with = |need| {
            self.flags
                .iter()
                .zip(&seen)
                .filter(move |(f, _)| f.0 == need)
        };
        if let Some((flag, _)) = with(Need::Required).find(|(_, &seen)| !seen) {
            return Err(fail(format!("requires {}", synopsis(flag))));
        }
        for (flag, _) in self.flags.iter().zip(&seen).filter(|(_, &seen)| seen) {
            let Need::With(other) = flag.0 else { continue };
            let beside = self
                .flags
                .iter()
                .zip(&seen)
                .find(|(f, _)| f.1.contains(&other));
            if !beside.is_some_and(|(_, &seen)| seen) {
                return Err(fail(format!("{} applies only with {other}", flag.1[0])));
            }
        }
        let group: Vec<String> = with(Need::OneOf).map(|(f, _)| synopsis(f)).collect();
        if !group.is_empty() && with(Need::OneOf).filter(|(_, &seen)| seen).count() != 1 {
            let group = group.join(" | ");
            return Err(fail(format!("requires exactly one of {group}")));
        }
        match self.positional {
            Some((name, _)) if positionals == 0 => {
                Err(fail(format!("requires at least one {name}")))
            }
            _ => Ok(options),
        }
    }
}

/// A command of any options type, as the dispatcher and the help see it.
pub trait Invoke: Sync {
    /// The command's name.
    fn name(&self) -> &'static str;
    /// The command's help: its synopsis, what it does, and one line per
    /// flag, all read off its table.
    fn usage(&self) -> String;
    /// Parse `args` without running anything.
    fn check(&self, args: &[String]) -> Result<(), String>;
    /// Print the usage when `args` ask for help, else parse and run.
    fn invoke(&self, args: &[String]) -> Outcome;
}

impl<O: Default + 'static> Invoke for Command<O> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn usage(&self) -> String {
        let mut out = format!("  dbselect {}", self.name);
        let with = |need| self.flags.iter().filter(move |f| f.0 == need);
        let group: Vec<String> = with(Need::OneOf).map(synopsis).collect();
        if !group.is_empty() {
            let _ = write!(out, " ({})", group.join(" | "));
        }
        for flag in with(Need::Required) {
            let _ = write!(out, " {}", synopsis(flag));
        }
        if (self.flags.iter()).any(|f| matches!(f.0, Need::Optional | Need::With(_))) {
            out.push_str(" [OPTIONS]");
        }
        if let Some((name, _)) = self.positional {
            let _ = write!(out, " {name} ...");
        }
        let _ = writeln!(out, "\n      {}", self.about);
        for (need, names, value, help, _) in self.flags {
            let spelled = format!("{} {value}", names.join(", "));
            let _ = write!(out, "      {spelled:<34} {help}");
            if let Need::With(other) = need {
                let _ = write!(out, " (only with {other})");
            }
            out.push('\n');
        }
        out
    }

    fn check(&self, args: &[String]) -> Result<(), String> {
        self.parse(args).map(drop)
    }

    fn invoke(&self, args: &[String]) -> Outcome {
        if args.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", self.usage());
            return Ok(());
        }
        (self.run)(self.parse(args)?)
    }
}

/// Store `value` in `slot` (what every setter ends in).
pub fn put<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

/// An integer value.
pub fn int<T: FromStr>(value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("expects an integer, got `{value}`"))
}

/// An integer value in milliseconds.
pub fn ms(value: &str) -> Result<Duration, String> {
    int(value).map(Duration::from_millis)
}
