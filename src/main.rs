//! `vqmc-cli` — command-line front end to the vqmc library.
//!
//! ```text
//! vqmc-cli train     --problem tim --n 20 --model made --sampler auto ...
//! vqmc-cli evaluate  --checkpoint model.ckpt --problem tim --n 20 ...
//! vqmc-cli sample    --checkpoint model.ckpt --count 16
//! vqmc-cli serve     --checkpoint model.ckpt --port 4710 --max-batch 64
//! vqmc-cli baselines --n 30 --seed 7
//! vqmc-cli scaling   --n 128 --mbs 16
//! vqmc-cli help
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency): flags are
//! `--key value` pairs checked against each subcommand's list of flag
//! names ([`cli::COMMANDS`]), with actionable error messages.

use std::collections::BTreeMap;
use std::process::ExitCode;

mod cli;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("{}", cli::USAGE);
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{}", cli::USAGE);
        return ExitCode::SUCCESS;
    }
    let Some(&(_, known, run)) = cli::COMMANDS.iter().find(|(name, ..)| *name == command) else {
        eprintln!("error: unknown command {command:?}");
        return ExitCode::FAILURE;
    };
    let rest: Vec<String> = args.collect();
    let flags = match parse_flags(&command, known, &rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match run(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--key value` pairs; rejects dangling flags, positionals and
/// flags `command` does not read.
fn parse_flags(
    command: &str,
    known: &[&str],
    args: &[String],
) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = &args[i];
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected a --flag, found {key:?}"));
        };
        if !known.contains(&name) {
            return Err(format!("unknown flag --{name} for {command}"));
        }
        let Some(value) = args.get(i + 1) else {
            return Err(format!("flag --{name} is missing its value"));
        };
        if map.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("flag --{name} given twice"));
        }
        i += 2;
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    /// Every `--flag` the usage text lists under a subcommand is one
    /// that subcommand accepts.
    #[test]
    fn usage_lists_only_accepted_flags() {
        let mut known: &[&str] = &[];
        for line in super::cli::USAGE.split("COMMANDS:").nth(1).unwrap().lines() {
            if let Some((_, flags, _)) = super::cli::COMMANDS
                .iter()
                .find(|(c, ..)| line.trim_start().starts_with(&format!("{c} ")))
            {
                known = flags;
            }
            for flag in line.split("--").skip(1) {
                let name = flag.split(|c: char| !c.is_ascii_lowercase() && c != '-').next();
                assert!(known.contains(&name.unwrap()), "--{flag} in: {line}");
            }
        }
    }
}
