//! Minimal flag parser (no external dependency): `--key value` pairs plus
//! positional arguments.

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

/// Parse `--key value` pairs; anything else is positional. A flag without
/// a following value is an error (boolean flags use `--key true`).
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let token = &argv[i];
        if let Some(key) = token.strip_prefix("--") {
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("flag --{key} is missing a value"))?;
            if value.starts_with("--") {
                return Err(format!("flag --{key} is missing a value"));
            }
            if args.flags.insert(key.to_string(), value.clone()).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
            i += 2;
        } else {
            args.positional.push(token.clone());
            i += 1;
        }
    }
    Ok(args)
}

impl Args {
    /// A required string flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// An optional flag parsed to a type, with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{key}: cannot parse {v:?}")),
        }
    }

    /// The names of every `--flag` given, in no particular order.
    pub fn flags(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = parse(&argv(&["stats", "--seed", "42", "file.json"])).unwrap();
        assert_eq!(
            a.positional(),
            &["stats".to_string(), "file.json".to_string()]
        );
        assert_eq!(a.require("seed").unwrap(), "42");
        assert_eq!(a.get_or::<u64>("seed", 0).unwrap(), 42);
        assert_eq!(a.get_or::<u64>("missing", 7).unwrap(), 7);
        assert!(a.get("nope").is_none());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&argv(&["--seed"])).is_err());
        assert!(parse(&argv(&["--seed", "--out"])).is_err());
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        assert!(parse(&argv(&["--m", "3", "--m", "5"])).is_err());
    }

    #[test]
    fn unparsable_typed_flag_is_an_error() {
        let a = parse(&argv(&["--m", "three"])).unwrap();
        assert!(a.get_or::<usize>("m", 1).is_err());
    }

    #[test]
    fn missing_required_flag() {
        let a = parse(&argv(&[])).unwrap();
        assert!(a.require("corpus").is_err());
    }
}
