//! The workspace-wide typed error: everything the CLI, trace loading
//! and checkpoint I/O can report instead of panicking, and the
//! [`ConfigError`] a configuration's validation returns.
//!
//! Hand-rolled in the `thiserror` style (the workspace vendors its
//! dependencies): an enum per failure class, a human-readable
//! [`core::fmt::Display`] naming the offending input, and
//! [`std::error::Error::source`] chaining for I/O causes.

use crate::system::SystemSpecError;

/// A typed error for the co-allocation toolchain's fallible paths.
#[derive(Debug)]
pub enum CoallocError {
    /// A command-line flag was given without its value.
    MissingValue {
        /// The flag that wanted a value (e.g. `--utils`).
        flag: String,
    },
    /// A command-line flag's value failed to parse.
    InvalidValue {
        /// The flag (or positional argument) name.
        flag: String,
        /// The offending value, verbatim.
        value: String,
        /// What a valid value looks like.
        want: String,
    },
    /// An unrecognized experiment target, subcommand or policy name.
    UnknownTarget {
        /// The name that matched nothing.
        name: String,
        /// What kind of name was expected (e.g. `policy`, `target`).
        what: String,
    },
    /// A fault specification was malformed or does not fit the system.
    FaultSpec {
        /// The spec string, verbatim.
        spec: String,
        /// Why it was rejected.
        detail: String,
    },
    /// The system geometry was rejected.
    System(SystemSpecError),
    /// A simulation or sweep configuration no run can execute.
    Config(ConfigError),
    /// An I/O operation failed.
    Io {
        /// What was being done (e.g. `writing checkpoint /tmp/x.json`).
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl CoallocError {
    /// Convenience constructor for [`CoallocError::InvalidValue`].
    pub fn invalid(flag: &str, value: &str, want: &str) -> Self {
        CoallocError::InvalidValue {
            flag: flag.to_string(),
            value: value.to_string(),
            want: want.to_string(),
        }
    }

    /// Convenience constructor for [`CoallocError::Io`].
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        CoallocError::Io { context: context.into(), source }
    }
}

impl core::fmt::Display for CoallocError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoallocError::MissingValue { flag } => {
                write!(f, "flag {flag} needs a value")
            }
            CoallocError::InvalidValue { flag, value, want } => {
                write!(f, "bad value `{value}` for {flag}: want {want}")
            }
            CoallocError::UnknownTarget { name, what } => {
                write!(f, "unknown {what} `{name}`")
            }
            CoallocError::FaultSpec { spec, detail } => {
                write!(f, "bad fault spec `{spec}`: {detail}")
            }
            CoallocError::System(e) => write!(f, "bad system: {e}"),
            CoallocError::Config(e) => write!(f, "invalid {}: {e}", e.field),
            CoallocError::Io { context, source } => {
                write!(f, "{context}: {source}")
            }
        }
    }
}

impl std::error::Error for CoallocError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoallocError::Io { source, .. } => Some(source),
            CoallocError::System(e) => Some(e),
            CoallocError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SystemSpecError> for CoallocError {
    fn from(e: SystemSpecError) -> Self {
        CoallocError::System(e)
    }
}

/// Why a configuration cannot run: the field at fault and the rule it
/// breaks. `SimConfig::validate` and `SweepConfig::validate` return it;
/// the engine's entry points panic with its [`Display`](core::fmt::Display)
/// text (the message alone), and front ends report it as
/// [`CoallocError::Config`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The configuration field at fault (e.g. `warmup_jobs`).
    pub field: &'static str,
    /// The rule the field breaks.
    pub message: String,
}

impl ConfigError {
    /// An error naming `field` and the rule it breaks.
    pub(crate) fn new(field: &'static str, message: impl Into<String>) -> Self {
        ConfigError { field, message: message.into() }
    }
}

/// `Ok` when `holds`; otherwise the [`ConfigError`] naming `field`, with
/// its message rendered only then (pass `format_args!` for a formatted
/// one).
pub(crate) fn ensure(
    holds: bool,
    field: &'static str,
    message: impl core::fmt::Display,
) -> Result<(), ConfigError> {
    if holds {
        Ok(())
    } else {
        Err(ConfigError::new(field, message.to_string()))
    }
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for CoallocError {
    fn from(e: ConfigError) -> Self {
        CoallocError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_names_the_offending_input() {
        let e = CoallocError::invalid("--utils", "0.1,zap", "comma-separated numbers in (0,1]");
        let text = e.to_string();
        assert!(text.contains("--utils") && text.contains("0.1,zap"), "{text}");

        let e = CoallocError::MissingValue { flag: "--checkpoint".into() };
        assert!(e.to_string().contains("--checkpoint"));

        let e = CoallocError::UnknownTarget { name: "zorp".into(), what: "policy".into() };
        assert!(e.to_string().contains("zorp") && e.to_string().contains("policy"));

        let e = CoallocError::FaultSpec { spec: "exp:x".into(), detail: "bad MTTF `x`".into() };
        assert!(e.to_string().contains("exp:x") && e.to_string().contains("MTTF"));
    }

    #[test]
    fn io_errors_chain_their_source() {
        let inner = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = CoallocError::io("reading trace log", inner);
        assert!(e.to_string().contains("reading trace log"));
        assert!(e.source().is_some(), "io source preserved");
    }

    #[test]
    fn system_errors_convert() {
        let spec_err = crate::system::SystemSpec::new(Vec::new()).validate().unwrap_err();
        let e: CoallocError = spec_err.into();
        assert!(matches!(e, CoallocError::System(_)));
        assert!(e.source().is_some());
    }
}
