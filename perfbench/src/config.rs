//! Command-line configuration. Every run takes `--workload`, `--seed`,
//! `--seconds` and `--trace`. The offered-rate ladder, the SLO and the
//! accuracy target are written in `BENCHMARK.json`'s `command`, so parent
//! and change always run with identical, recorded settings; none has a
//! default.

use crate::json::Obj;

/// The workloads. Each runs every phase; the workload picks the phase
/// that runs first and, for the open-loop ladder, at full length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// FAST-Adaptive ResNet-18-lite training first; the ladder runs short.
    TrainResnet18,
    /// The open-loop MLP ladder first and at full length.
    ServeMlpPoisson,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "train-resnet18" => Ok(Workload::TrainResnet18),
            "serve-mlp-poisson" => Ok(Workload::ServeMlpPoisson),
            other => Err(format!("unknown workload `{other}`")),
        }
    }

    /// The workload's name as given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainResnet18 => "train-resnet18",
            Workload::ServeMlpPoisson => "serve-mlp-poisson",
        }
    }
}

/// Parsed settings of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload runs at full size.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the full open-loop ladder (all rungs together).
    pub seconds: f64,
    /// Whether this is the traced pass.
    pub trace: bool,
    /// Latency SLO of the open-loop MLP traffic, in milliseconds.
    pub slo_ms: f64,
    /// Offered rates of the open-loop ladder (requests/s), ascending.
    pub mlp_rates: Vec<f64>,
    /// The ladder's nominal rate (latency metrics are taken here).
    pub mlp_nominal: f64,
    /// The ladder's overload rate (goodput is taken here).
    pub mlp_overload: f64,
    /// Held-out accuracy (%) that stops the time-to-accuracy clock.
    pub target_acc: f64,
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`"))
}

impl Config {
    /// Parses `args` (without the program name).
    pub fn parse(args: &[String]) -> Result<Config, String> {
        let mut pairs = std::collections::BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            if !flag.starts_with("--") || pairs.insert(flag.as_str(), value.as_str()).is_some() {
                return Err(format!("unexpected or repeated argument `{flag}`"));
            }
        }
        let mut take = |flag: &str| {
            pairs
                .remove(flag)
                .ok_or_else(|| format!("missing required argument {flag}"))
        };
        let workload = Workload::parse(take("--workload")?)?;
        let seed = number("--seed", take("--seed")?)?;
        let seconds: f64 = number("--seconds", take("--seconds")?)?;
        let trace = match take("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        };
        let mut mlp_rates = Vec::new();
        for r in take("--mlp-rates")?.split(',') {
            mlp_rates.push(number::<f64>("--mlp-rates", r)?);
        }
        let cfg = Config {
            workload,
            seed,
            seconds,
            trace,
            slo_ms: number("--slo-ms", take("--slo-ms")?)?,
            mlp_rates,
            mlp_nominal: number("--mlp-nominal", take("--mlp-nominal")?)?,
            mlp_overload: number("--mlp-overload", take("--mlp-overload")?)?,
            target_acc: number("--target-acc", take("--target-acc")?)?,
        };
        if let Some(flag) = pairs.keys().next() {
            return Err(format!("unknown argument {flag}"));
        }
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), String> {
        let ascending = self.mlp_rates.windows(2).all(|w| w[0] < w[1]);
        if self.mlp_rates.len() < 3 || !ascending || self.mlp_rates[0] <= 0.0 {
            return Err("--mlp-rates needs at least three ascending positive rates".into());
        }
        for (flag, rate) in [
            ("--mlp-nominal", self.mlp_nominal),
            ("--mlp-overload", self.mlp_overload),
        ] {
            if !self.mlp_rates.contains(&rate) {
                return Err(format!("{flag} {rate} is not on the ladder"));
            }
        }
        if self.mlp_overload <= self.mlp_nominal {
            return Err("--mlp-overload must exceed --mlp-nominal".into());
        }
        if self.seconds <= 0.0 || self.seconds.is_nan() || self.slo_ms <= 0.0 {
            return Err("--seconds and --slo-ms must be positive".into());
        }
        Ok(())
    }

    /// The settings as a JSON object, recorded with every result.
    pub fn to_json(&self) -> Obj {
        let mut o = Obj::new();
        let rates: Vec<String> = self
            .mlp_rates
            .iter()
            .map(|r| crate::json::number(*r))
            .collect();
        o.str("workload", self.workload.name())
            .num("seed", self.seed as f64)
            .num("seconds", self.seconds)
            .bool("trace", self.trace)
            .num("slo_ms", self.slo_ms)
            .raw("mlp_rates", format!("[{}]", rates.join(", ")))
            .num("mlp_nominal", self.mlp_nominal)
            .num("mlp_overload", self.mlp_overload)
            .num("target_acc", self.target_acc);
        o
    }
}
