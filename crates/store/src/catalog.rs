//! Store-root catalog: enumerate the readable recordings in a directory.

use crate::error::StoreError;
use crate::reader::SegmentReader;
use crate::writer::SEGMENT_EXT;
use bsa_link::RecordingEntry;
use std::io::ErrorKind;
use std::path::Path;

/// Lists the readable recordings under `root`, sorted by name, as the
/// rows of a `RecordingList` reply. A missing root is an empty store, not
/// an error; segments that fail validation (in-progress recordings, torn
/// writes) are skipped — they surface as typed errors when opened
/// directly, never as wrong catalog rows.
pub fn list_recordings(root: &Path) -> Result<Vec<RecordingEntry>, StoreError> {
    let entries = match std::fs::read_dir(root) {
        Ok(entries) => entries,
        Err(err) if err.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
        Err(err) => return Err(err.into()),
    };
    let mut out = Vec::new();
    for entry in entries {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some(SEGMENT_EXT) {
            continue;
        }
        let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let Ok(reader) = SegmentReader::open(&path) else {
            continue;
        };
        let meta = reader.meta();
        out.push(RecordingEntry {
            name: name.to_string(),
            kind: meta.kind,
            rows: meta.rows,
            cols: meta.cols,
            frames: reader.frames(),
            bytes: reader.bytes(),
            config_hash: meta.config_hash,
        });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}
