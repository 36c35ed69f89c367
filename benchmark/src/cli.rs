//! The argument form the benchmark driver uses:
//! `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.

use crate::workloads::{Plan, Workload};

/// One run's arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunArgs {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs and of the topology.
    pub seed: u64,
    /// How long the run should measure.
    pub seconds: u64,
    /// `true` for the traced, per-layer run.
    pub trace: bool,
    /// Reduced sizes; the output is not comparable.
    pub quick: bool,
}

/// The whole number `flag` was given.
///
/// # Errors
///
/// Names the flag and the text that is not a whole number.
pub fn whole_number(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} {value}: not a whole number"))
}

impl RunArgs {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--quick]`.
    ///
    /// # Errors
    ///
    /// Names the missing, unknown or malformed argument.
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds = 10;
        let mut trace = false;
        let mut quick = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--quick" {
                quick = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || whole_number(flag, value);
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => trace = number()? != 0,
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(RunArgs {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            quick,
        })
    }

    /// The sizes this run uses.
    pub fn plan(&self) -> Plan {
        Plan::new(self.workload, self.seconds, self.quick)
    }
}
