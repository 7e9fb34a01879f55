//! # vita-dbi
//!
//! Digital Building Information (DBI) processing for the Vita toolkit.
//!
//! Vita "accepts industry-standard DBI files and uses real-world
//! (multi-floor) buildings ... as the host environment for data generation"
//! (paper §1). This crate is the DBI Processor of the Interface component
//! (Fig. 2): it parses STEP/IFC text into typed building entities, validates
//! and repairs them, and can serialize models back out.
//!
//! Pipeline: [`step::parse_step`] → [`schema::decode`] →
//! [`repair::validate_and_repair`] → hand the [`DbiModel`] to `vita-indoor`.
//!
//! Because real IFC exports are proprietary, [`synth`] generates office,
//! mall and clinic buildings *as STEP files*, so the full parse path is
//! always exercised.

pub mod repair;
pub mod schema;
pub mod step;
pub mod synth;
pub mod writer;

pub use repair::{validate_and_repair, Finding, FindingKind, RepairReport};
pub use schema::{
    decode, DbiModel, DecodeError, DecodeIssue, Decoded, DoorDirectionality, DoorRec, EntityId,
    SpaceRec, StairRec, StoreyRec, WallRec,
};
pub use step::{parse_step, Arg, RawRecord, StepError, StepFile};
pub use synth::{clinic, mall, office, SynthParams};
pub use writer::write_step;

/// Convenience: parse STEP text all the way to a repaired model.
///
/// Returns the model, decode issues and repair findings.
pub fn load_dbi(text: &str) -> Result<LoadedDbi, LoadError> {
    let file = step::parse_step(text).map_err(LoadError::Step)?;
    let decoded = schema::decode(&file).map_err(LoadError::Decode)?;
    let mut model = decoded.model;
    let report = repair::validate_and_repair(&mut model);
    Ok(LoadedDbi {
        model,
        decode_issues: decoded.issues,
        repair: report,
    })
}

/// Result of [`load_dbi`].
#[derive(Debug, Clone)]
pub struct LoadedDbi {
    pub model: DbiModel,
    pub decode_issues: Vec<DecodeIssue>,
    pub repair: RepairReport,
}

/// Errors from [`load_dbi`].
#[derive(Debug, Clone)]
pub enum LoadError {
    Step(StepError),
    Decode(DecodeError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Step(e) => write!(f, "STEP parse error: {e}"),
            LoadError::Decode(e) => write!(f, "DBI decode error: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_dbi_end_to_end_on_synthetic_office() {
        let model = synth::office(&SynthParams::with_floors(3));
        let text = writer::write_step(&model);
        let loaded = load_dbi(&text).expect("load");
        assert_eq!(loaded.model.storeys.len(), 3);
        assert!(loaded.decode_issues.is_empty());
        assert_eq!(loaded.repair.unrepaired_count(), 0);
    }

    #[test]
    fn load_dbi_surfaces_parse_errors() {
        assert!(matches!(
            load_dbi("not a step file"),
            Err(LoadError::Step(_))
        ));
    }
}
