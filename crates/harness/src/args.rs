//! Minimal command-line parsing shared by the harness binaries.

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--blocks N` — target block count for case-1-style workloads.
    pub blocks: usize,
    /// `--rocks N` — rock count for case-2-style workloads.
    pub rocks: usize,
    /// `--steps N` — time steps to run.
    pub steps: usize,
    /// `--seed N` — workload seed.
    pub seed: u64,
    /// `--full` — paper-scale sizes (case 1: 4361 blocks / 40 000 steps;
    /// case 2: 1683 rocks / 80 000 steps). Expect long runtimes.
    pub full: bool,
}

/// The flags every harness binary shares.
const SHARED_FLAGS: [&str; 5] = ["--blocks", "--rocks", "--steps", "--seed", "--full"];

impl Args {
    /// Parses `std::env::args` with per-experiment defaults; prints the
    /// problem and exits with status 2 on a bad value or an unknown flag.
    pub fn parse(default_blocks: usize, default_rocks: usize, default_steps: usize) -> Args {
        let argv: Vec<String> = std::env::args().collect();
        let defaults = Args {
            blocks: default_blocks,
            rocks: default_rocks,
            steps: default_steps,
            seed: 20170529,
            full: false,
        };
        Args::parse_from(&argv, defaults).unwrap_or_else(|msg| {
            eprintln!("{}: {msg}", argv.first().map_or("harness", String::as_str));
            std::process::exit(2);
        })
    }

    /// Overrides `defaults` with the shared flags found in `argv`. A flag
    /// that is present must carry a parsable value, and every `--flag` must
    /// be a shared one, so a misspelt flag is an error, not a run on the
    /// defaults.
    pub fn parse_from(argv: &[String], defaults: Args) -> Result<Args, String> {
        if let Some(unknown) = argv
            .iter()
            .skip(1)
            .find(|a| a.starts_with("--") && !SHARED_FLAGS.contains(&a.as_str()))
        {
            return Err(format!("{unknown}: unknown flag"));
        }
        let get = |name: &str| -> Result<Option<u64>, String> {
            let Some(p) = argv.iter().position(|a| a == name) else {
                return Ok(None);
            };
            let v = argv
                .get(p + 1)
                .ok_or_else(|| format!("{name} needs a value"))?;
            v.parse()
                .map(Some)
                .map_err(|_| format!("{name}: `{v}` is not a non-negative integer"))
        };
        Ok(Args {
            blocks: get("--blocks")?.map_or(defaults.blocks, |v| v as usize),
            rocks: get("--rocks")?.map_or(defaults.rocks, |v| v as usize),
            steps: get("--steps")?.map_or(defaults.steps, |v| v as usize),
            seed: get("--seed")?.unwrap_or(defaults.seed),
            full: defaults.full || argv.iter().any(|a| a == "--full"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEFAULTS: Args = Args {
        blocks: 123,
        rocks: 45,
        steps: 6,
        seed: 7,
        full: false,
    };

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse_from(&argv, DEFAULTS)
    }

    #[test]
    fn flags_override_defaults_or_are_rejected() {
        // (command line, expected (blocks, rocks, steps, seed, full) or the
        // flag the error must name)
        type Fields = (usize, usize, usize, u64, bool);
        let cases: [(&str, Result<Fields, &str>); 12] = [
            ("bin", Ok((123, 45, 6, 7, false))),
            ("bin --steps 10", Ok((123, 45, 10, 7, false))),
            (
                "bin --full --seed 9 --rocks 2 --blocks 8",
                Ok((8, 2, 6, 9, true)),
            ),
            // Anything else that looks like a flag is rejected: a typo, a
            // flag no harness binary reads, a typo behind valid flags.
            ("bin --stpes 10", Err("--stpes")),
            ("bin --scenes 4 --rocks 3", Err("--scenes")),
            ("bin --steps 3 --sceens 4", Err("--sceens")),
            ("bin --steps 3 --", Err("--")),
            ("bin --steps 1o", Err("--steps")),
            ("bin --seed -1", Err("--seed")),
            ("bin --blocks 4.5", Err("--blocks")),
            ("bin --steps 3 --rocks", Err("--rocks")),
            ("bin --rocks --steps 3", Err("--rocks")),
        ];
        for (line, want) in cases {
            match (parse(line), want) {
                (Ok(a), Ok(want)) => {
                    assert_eq!((a.blocks, a.rocks, a.steps, a.seed, a.full), want, "{line}")
                }
                (Err(msg), Err(flag)) => assert!(msg.starts_with(flag), "{line}: {msg}"),
                (got, want) => panic!("{line}: got {got:?}, want {want:?}"),
            }
        }
    }
}
