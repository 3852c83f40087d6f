//! Error type shared by the reader algorithms.

/// Errors produced by the Caraoke reader pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CaraokeError {
    /// The collision signal does not have the number of antennas the
    /// operation requires.
    NotEnoughAntennas {
        /// Antennas required by the operation.
        required: usize,
        /// Antennas present in the signal.
        available: usize,
    },
    /// No spectral peak was found where one was expected.
    NoPeak,
    /// The requested peak/bin index does not exist.
    UnknownPeak(usize),
    /// An AoA measurement could not be converted to an angle.
    Aoa(caraoke_geom::AoaError),
    /// Decoding did not produce a CRC-valid packet within the query budget.
    DecodeFailed {
        /// Number of queries that were combined before giving up.
        queries_used: usize,
    },
    /// The two-reader localization had no solution on the road.
    NoFix,
    /// Configuration is inconsistent.
    InvalidConfig(String),
    /// The collision signal is not something the front end can have
    /// produced: the payload says what is wrong with it.
    MalformedSignal(&'static str),
}

impl std::fmt::Display for CaraokeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaraokeError::NotEnoughAntennas {
                required,
                available,
            } => write!(
                f,
                "operation requires {required} antennas but the signal has {available}"
            ),
            CaraokeError::NoPeak => write!(f, "no spectral peak found"),
            CaraokeError::UnknownPeak(idx) => write!(f, "peak index {idx} does not exist"),
            CaraokeError::Aoa(e) => write!(f, "AoA estimation failed: {e}"),
            CaraokeError::DecodeFailed { queries_used } => {
                write!(
                    f,
                    "failed to decode a CRC-valid id after {queries_used} queries"
                )
            }
            CaraokeError::NoFix => write!(f, "two-reader localization found no on-road solution"),
            CaraokeError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CaraokeError::MalformedSignal(what) => write!(f, "malformed collision signal: {what}"),
        }
    }
}

impl std::error::Error for CaraokeError {}

impl From<caraoke_geom::AoaError> for CaraokeError {
    fn from(e: caraoke_geom::AoaError) -> Self {
        CaraokeError::Aoa(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CaraokeError::NotEnoughAntennas {
            required: 2,
            available: 1,
        };
        assert!(format!("{e}").contains("requires 2"));
        assert!(format!("{}", CaraokeError::NoPeak).contains("no spectral peak"));
        assert!(format!("{}", CaraokeError::DecodeFailed { queries_used: 7 }).contains('7'));
        assert!(format!("{}", CaraokeError::InvalidConfig("bad".into())).contains("bad"));
        assert!(format!("{}", CaraokeError::MalformedSignal("ragged")).contains("ragged"));
    }

    #[test]
    fn aoa_error_converts() {
        let e: CaraokeError = caraoke_geom::AoaError::PhaseOutOfRange.into();
        assert_eq!(
            e,
            CaraokeError::Aoa(caraoke_geom::AoaError::PhaseOutOfRange)
        );
    }
}
