//! The `ff` command line's engine: flags are *declared* ([`Flag`]:
//! name, value type, accepted range, default, help), commands are rows
//! of a table ([`Command`]), and everything a user can get wrong is
//! refused here — unknown flag, missing value, unparsable or
//! out-of-range value — before a store, server or simulator exists.
//! Usage text is generated from the same declarations, so it cannot
//! drift from what the parser accepts.
//!
//! One exit-code rule ([`Exit`]): 2 for anything wrong with the command
//! line or the configuration it describes, 1 when the run itself broke
//! its contract (divergence, refused recovery, a failed experiment, an
//! I/O error), 0 otherwise.

use ff_store::Backend;
use ff_workload::parse_seed;
use std::fmt::Write as _;
use std::io::Write as _;
use std::ops::RangeInclusive;

/// The largest count any integer flag accepts unless it says otherwise:
/// fits `usize` on every supported target.
pub const COUNT_MAX: u64 = u32::MAX as u64;

/// What a flag's value is and which values are accepted.
#[derive(Debug)]
pub enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// An integer in the range.
    Int(RangeInclusive<u64>),
    /// A finite real in the range.
    Real(RangeInclusive<f64>),
    /// A `u64` seed, decimal or `0x` hex.
    Seed,
    /// Free text — a path, or a name the command checks itself.
    Text,
    /// The name of a registered consensus substrate.
    Backend,
}

/// One declared flag (or positional argument).
#[derive(Debug)]
pub struct Flag {
    /// As typed, e.g. `--shards`.
    pub name: &'static str,
    /// Value type and accepted range.
    pub kind: Kind,
    /// The value used when the flag is absent, spelled as a user would
    /// type it (it goes through the same validation); `None` for
    /// switches and for flags whose absence means "not set".
    pub default: Option<&'static str>,
    /// One line for the usage text.
    pub help: &'static str,
}

/// What a command accepts besides flags.
#[derive(Debug)]
pub enum Positional {
    /// Nothing.
    None,
    /// Any number of free words (the label names them in the usage).
    Words(&'static str),
    /// At most one value, declared and validated like a flag's.
    One(&'static Flag),
}

/// One row of the command table.
pub struct Command {
    /// The words that select it, e.g. `["dst", "run"]`.
    pub path: &'static [&'static str],
    /// One line for the usage text.
    pub about: &'static str,
    /// Its flags, as groups so commands can share a declaration.
    pub flags: &'static [&'static [&'static Flag]],
    /// Its positional arguments.
    pub positional: Positional,
    /// The command itself.
    pub run: fn(&Args) -> Result<(), Exit>,
}

impl Command {
    /// Every flag this command accepts.
    pub fn all_flags(&self) -> impl Iterator<Item = &'static Flag> + '_ {
        self.flags.iter().flat_map(|group| group.iter().copied())
    }
}

/// Why a command did not exit 0.
#[derive(Debug)]
pub enum Exit {
    /// Exit 2: the command line or the configuration it describes is
    /// wrong; nothing ran. An empty message is a plain `--help`.
    Usage(String),
    /// Exit 1: the run broke its contract, or could not do its I/O.
    Failed(String),
}

#[derive(Debug)]
enum Value {
    On,
    Int(u64),
    Real(f64),
    Text(String),
    Backend(Backend),
}

/// A validated command line: every value is in its declared range.
#[derive(Debug)]
pub struct Args {
    values: Vec<(&'static str, Value)>,
    /// The free words of a [`Positional::Words`] command.
    pub words: Vec<String>,
}

fn check(flag: &Flag, text: &str) -> Result<Value, Exit> {
    let refuse = || {
        Exit::Usage(format!(
            "{}: expected {}, got {text:?}",
            flag.name,
            describe(&flag.kind)
        ))
    };
    Ok(match &flag.kind {
        Kind::Switch => Value::On,
        Kind::Int(range) => match text.parse::<u64>() {
            Ok(n) if range.contains(&n) => Value::Int(n),
            _ => return Err(refuse()),
        },
        Kind::Real(range) => match text.parse::<f64>() {
            Ok(x) if range.contains(&x) => Value::Real(x),
            _ => return Err(refuse()),
        },
        Kind::Seed => Value::Int(parse_seed(text).ok_or_else(refuse)?),
        Kind::Text => Value::Text(text.to_string()),
        Kind::Backend => Value::Backend(
            text.parse()
                .map_err(|e| Exit::Usage(format!("{}: {e}", flag.name)))?,
        ),
    })
}

fn describe(kind: &Kind) -> String {
    match kind {
        Kind::Switch | Kind::Text => String::new(),
        Kind::Int(range) => format!("an integer in {range:?}"),
        Kind::Real(range) => format!("a number in {range:?}"),
        Kind::Seed => "a seed (decimal or 0x hex, up to 64 bits)".into(),
        Kind::Backend => format!("one of {}", ff_store::substrate_names().join(", ")),
    }
}

/// Parse `argv` (the words after the command's own) against `cmd`'s
/// declarations. Total: any input is an `Args` or an [`Exit::Usage`].
pub fn parse(cmd: &Command, argv: &[String]) -> Result<Args, Exit> {
    let positional = match cmd.positional {
        Positional::One(flag) => Some(flag),
        _ => None,
    };
    // Defaults go in first and through the same check; a value given
    // later on the line wins.
    let mut args = Args {
        values: Vec::new(),
        words: Vec::new(),
    };
    for flag in cmd.all_flags().chain(positional) {
        if let Some(default) = flag.default {
            args.values.push((flag.name, check(flag, default)?));
        }
    }
    let mut positional_given = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Err(Exit::Usage(String::new()));
        }
        if arg.starts_with("--") {
            let flag = cmd
                .all_flags()
                .find(|f| f.name == arg)
                .ok_or_else(|| Exit::Usage(format!("unknown argument: {arg}")))?;
            let value = match flag.kind {
                Kind::Switch => Value::On,
                _ => check(
                    flag,
                    it.next()
                        .ok_or_else(|| Exit::Usage(format!("{} requires a value", flag.name)))?,
                )?,
            };
            args.values.push((flag.name, value));
            continue;
        }
        match cmd.positional {
            Positional::Words(_) => args.words.push(arg.clone()),
            Positional::One(flag) if !positional_given => {
                positional_given = true;
                args.values.push((flag.name, check(flag, arg)?));
            }
            _ => return Err(Exit::Usage(format!("unexpected argument: {arg}"))),
        }
    }
    Ok(args)
}

impl Args {
    /// The value of `flag`: the last one given, else its default.
    fn get(&self, flag: &Flag) -> Option<&Value> {
        self.values
            .iter()
            .rev()
            .find(|(name, _)| *name == flag.name)
            .map(|(_, v)| v)
    }

    /// Was this switch given?
    pub fn on(&self, flag: &Flag) -> bool {
        self.get(flag).is_some()
    }

    /// An [`Kind::Int`] or [`Kind::Seed`] flag, if given or defaulted.
    pub fn maybe_int(&self, flag: &Flag) -> Option<u64> {
        match self.get(flag) {
            Some(Value::Int(n)) => Some(*n),
            None => None,
            other => panic!("{}: not an integer flag: {other:?}", flag.name),
        }
    }

    /// An [`Kind::Int`] or [`Kind::Seed`] flag that declares a default.
    pub fn int(&self, flag: &Flag) -> u64 {
        self.maybe_int(flag)
            .unwrap_or_else(|| panic!("{} declares no default", flag.name))
    }

    /// A [`Kind::Real`] flag that declares a default.
    pub fn real(&self, flag: &Flag) -> f64 {
        match self.get(flag) {
            Some(Value::Real(x)) => *x,
            other => panic!("{}: not a real with a default: {other:?}", flag.name),
        }
    }

    /// A [`Kind::Backend`] flag that declares a default.
    pub fn backend(&self, flag: &Flag) -> Backend {
        match self.get(flag) {
            Some(Value::Backend(b)) => b.clone(),
            other => panic!("{}: not a backend with a default: {other:?}", flag.name),
        }
    }

    /// A [`Kind::Text`] flag, if given or defaulted.
    pub fn text(&self, flag: &Flag) -> Option<&str> {
        match self.get(flag) {
            Some(Value::Text(s)) => Some(s),
            None => None,
            other => panic!("{}: not a text flag: {other:?}", flag.name),
        }
    }

    /// A [`Kind::Text`] flag the command cannot run without.
    pub fn required(&self, flag: &Flag) -> Result<&str, Exit> {
        self.text(flag)
            .ok_or_else(|| Exit::Usage(format!("{} is required", flag.name)))
    }
}

/// The usage text of one command, generated from its declarations.
pub fn usage(cmd: &Command) -> String {
    let mut out = format!("usage: ff {}", cmd.path.join(" "));
    if cmd.all_flags().next().is_some() {
        out.push_str(" [options]");
    }
    let positional = match cmd.positional {
        Positional::None => None,
        Positional::Words(label) => {
            let _ = write!(out, " [{label}…]");
            None
        }
        Positional::One(flag) => {
            let _ = write!(out, " [{}]", flag.name);
            Some(flag)
        }
    };
    let _ = writeln!(out, "\n  {}", cmd.about);
    for flag in positional.into_iter().chain(cmd.all_flags()) {
        let meta = match flag.kind {
            Kind::Switch => "",
            Kind::Int(_) => " N",
            Kind::Real(_) => " X",
            Kind::Seed => " SEED",
            Kind::Text => " TEXT",
            Kind::Backend => " NAME",
        };
        let _ = write!(
            out,
            "  {:<24} {}",
            format!("{}{meta}", flag.name),
            flag.help
        );
        let accepted = match flag.kind {
            Kind::Switch | Kind::Text => None,
            _ => Some(describe(&flag.kind)),
        };
        let default = flag.default.map(|d| format!("default {d}"));
        let notes: Vec<String> = accepted.into_iter().chain(default).collect();
        if !notes.is_empty() {
            let _ = write!(out, " [{}]", notes.join("; "));
        }
        out.push('\n');
    }
    out
}

/// The top-level usage: every row of the command table.
pub fn overview(commands: &[Command]) -> String {
    let mut out = String::from("usage: ff <command> [options]\n");
    for cmd in commands {
        let _ = writeln!(out, "  {:<16} {}", cmd.path.join(" "), cmd.about);
    }
    out.push_str("`ff <command> --help` lists the command's flags.\n");
    out
}

/// Write a rendered JSON document to `path`; an I/O failure is an
/// exit-1 [`Exit::Failed`].
pub fn write_json(path: &str, text: String) -> Result<(), Exit> {
    std::fs::write(path, text).map_err(|e| Exit::Failed(format!("failed to write {path}: {e}")))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Run `ff` on `argv` (without the program name) against `commands`
/// and return the process exit code.
pub fn run(commands: &[Command], argv: &[String]) -> i32 {
    // Not `eprint!`: a closed stderr must not turn exit 2 into a panic.
    let say = |text: String| {
        let _ = std::io::stderr().write_all(text.as_bytes());
    };
    let selects = |c: &&Command| c.path.iter().eq(argv.iter().take(c.path.len()));
    let Some(cmd) = commands.iter().find(selects) else {
        if let Some(word) = argv.first().filter(|w| !w.starts_with('-')) {
            say(format!("unknown command: {word}\n"));
        }
        say(overview(commands));
        return 2;
    };
    match parse(cmd, &argv[cmd.path.len()..]).and_then(|args| (cmd.run)(&args)) {
        Ok(()) => 0,
        Err(Exit::Usage(message)) => {
            if !message.is_empty() {
                say(format!("{message}\n"));
            }
            say(usage(cmd));
            2
        }
        Err(Exit::Failed(message)) => {
            say(format!("{message}\n"));
            1
        }
    }
}
