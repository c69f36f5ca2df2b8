//! Append-only, SHA-256-framed checkpoint files.
//!
//! An experiment run appends one frame per completed work unit; after a
//! crash (panic, `kill -9`, power loss) `repro --resume` replays the
//! valid frames and recomputes only the remainder. Because seeds and fold
//! order are deterministic, a resumed run's artifacts are bit-identical
//! to an uninterrupted run's — the property the chaos harness pins down.
//!
//! ## Frame layout (little-endian)
//!
//! ```text
//! magic    b"OLAC"      4 bytes
//! len      u32 LE       payload byte length
//! digest   32 bytes     SHA-256 of the payload
//! payload  len bytes    one compact JSON document (UTF-8)
//! ```
//!
//! Every [`CheckpointWriter::append`] writes the complete frame and
//! fsyncs before returning, so a frame is either durably whole or not
//! counted. Readers validate magic, length, digest, and JSON of each
//! frame in order; the first failure ends the *valid prefix*. Recovery
//! ([`open_resumable`]) copies a damaged file aside to
//! `<path>.quarantined` for post-mortems, truncates the original to the
//! valid prefix, and appends from there — tampered or torn frames are
//! never replayed.

use super::{chaos, retry_io, ResilienceError};
use crate::obs::json::{self, JsonValue};
use crate::obs::sha256::Sha256;
use std::fs;
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Frame magic: "OLA Checkpoint".
pub const MAGIC: [u8; 4] = *b"OLAC";
/// Bytes before the payload: magic + length + digest.
pub const HEADER_LEN: usize = 4 + 4 + 32;

/// Exit code used by the chaos hooks when they abort the process
/// mid-run ([`chaos::ABORT_AFTER_FRAMES`], [`chaos::TORN_FRAME`]) —
/// distinct from every regular `repro` exit code so the harness can tell
/// an injected crash from a real failure.
pub const CHAOS_EXIT: i32 = 86;

/// The result of scanning a checkpoint file.
#[derive(Debug)]
pub struct ReadOutcome {
    /// Payloads of the valid frame prefix, in append order.
    pub frames: Vec<JsonValue>,
    /// Byte length of the valid prefix (a safe truncation point).
    pub valid_len: u64,
    /// Why the scan stopped before the end of the file, if it did.
    pub damage: Option<String>,
}

/// Scans `path`, validating frames in order. A missing file reads as
/// empty and undamaged; any malformed frame ends the valid prefix and is
/// reported in [`ReadOutcome::damage`] (it is *not* an error — recovery
/// from damage is the expected path after a crash).
///
/// # Errors
///
/// [`ResilienceError::Io`] if the file exists but cannot be read.
pub fn read_frames(path: &Path) -> Result<ReadOutcome, ResilienceError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(ReadOutcome { frames: Vec::new(), valid_len: 0, damage: None })
        }
        Err(e) => {
            return Err(ResilienceError::Io {
                context: format!("reading checkpoint {}", path.display()),
                source: e,
            })
        }
    };

    let mut frames = Vec::new();
    let mut off = 0usize;
    let damage = loop {
        if off == bytes.len() {
            break None;
        }
        let frame_no = frames.len();
        if bytes.len() - off < HEADER_LEN {
            break Some(format!("frame {frame_no}: truncated header"));
        }
        if bytes[off..off + 4] != MAGIC {
            break Some(format!("frame {frame_no}: bad magic"));
        }
        let len = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes")) as usize;
        if bytes.len() - off - HEADER_LEN < len {
            break Some(format!("frame {frame_no}: truncated payload"));
        }
        let payload = &bytes[off + HEADER_LEN..off + HEADER_LEN + len];
        let mut h = Sha256::new();
        h.update(payload);
        if h.finalize() != bytes[off + 8..off + 40] {
            break Some(format!("frame {frame_no}: digest mismatch"));
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break Some(format!("frame {frame_no}: payload is not UTF-8"));
        };
        let Ok(value) = json::parse(text) else {
            break Some(format!("frame {frame_no}: payload is not valid JSON"));
        };
        frames.push(value);
        off += HEADER_LEN + len;
    };
    Ok(ReadOutcome { frames, valid_len: off as u64, damage })
}

/// An append handle positioned at the end of a checkpoint file's valid
/// prefix. Every append is durable (fsync) before it returns.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: fs::File,
    path: PathBuf,
    frames: u64,
}

impl CheckpointWriter {
    /// Creates (or truncates) the checkpoint at `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] on filesystem failure.
    pub fn create(path: &Path) -> Result<CheckpointWriter, ResilienceError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                retry_io("creating checkpoint directory", || fs::create_dir_all(parent))?;
            }
        }
        let file = retry_io("creating checkpoint", || fs::File::create(path))?;
        Ok(CheckpointWriter { file, path: path.to_path_buf(), frames: 0 })
    }

    /// Number of frames this writer has durably appended (including the
    /// replayed prefix when opened via [`open_resumable`]).
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// The file this writer appends to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one frame and fsyncs. Honors the chaos hooks: a torn-frame
    /// injection writes half the frame and aborts the process; an
    /// abort-after-frames injection aborts after the fsync — both with
    /// exit code [`CHAOS_EXIT`].
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] if the write or fsync fails after retries.
    pub fn append(&mut self, payload: &JsonValue) -> Result<(), ResilienceError> {
        let body = payload.render().into_bytes();
        let mut frame = Vec::with_capacity(HEADER_LEN + body.len());
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(
            &u32::try_from(body.len()).expect("payloads are small").to_le_bytes(),
        );
        let mut h = Sha256::new();
        h.update(&body);
        frame.extend_from_slice(&h.finalize());
        frame.extend_from_slice(&body);

        let torn = chaos::torn_frame() == Some(self.frames + 1);
        if torn {
            frame.truncate(frame.len() / 2);
        }
        retry_io("appending checkpoint frame", || {
            self.file.write_all(&frame)?;
            self.file.sync_data()
        })?;
        if torn {
            eprintln!("[chaos] torn frame {} injected; aborting", self.frames + 1);
            std::process::exit(CHAOS_EXIT);
        }
        self.frames += 1;
        crate::obs::registry().counter("ola.resilience.frames_written").inc();
        if chaos::abort_after_frames() == Some(self.frames) {
            eprintln!("[chaos] aborting after {} durable frame(s)", self.frames);
            std::process::exit(CHAOS_EXIT);
        }
        Ok(())
    }
}

/// The quarantine destination for a damaged checkpoint.
#[must_use]
pub fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(std::ffi::OsString::from).unwrap_or_default();
    name.push(".quarantined");
    path.with_file_name(name)
}

/// Opens `path` for resumption: scans the valid frame prefix, and — if
/// the tail is damaged — copies the whole file to `<path>.quarantined`,
/// truncates the original back to the valid prefix, and records the
/// recovery (counter `ola.resilience.checkpoints_quarantined`, annotation
/// `resilience.quarantined`). The returned writer appends after the valid
/// prefix; the returned outcome carries the replayable frames.
///
/// # Errors
///
/// [`ResilienceError::Io`] on filesystem failure.
pub fn open_resumable(path: &Path) -> Result<(ReadOutcome, CheckpointWriter), ResilienceError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            retry_io("creating checkpoint directory", || fs::create_dir_all(parent))?;
        }
    }
    let outcome = read_frames(path)?;
    if let Some(reason) = &outcome.damage {
        let q = quarantine_path(path);
        retry_io("quarantining damaged checkpoint", || fs::copy(path, &q).map(|_| ()))?;
        crate::obs::registry().counter("ola.resilience.checkpoints_quarantined").inc();
        crate::obs::annotate("resilience.quarantined", format!("{} ({reason})", q.display()));
        eprintln!(
            "[resume] damaged checkpoint tail quarantined to {} ({reason}); \
             recomputing from frame {}",
            q.display(),
            outcome.frames.len()
        );
    }
    let mut file = retry_io("opening checkpoint for append", || {
        // No `truncate(true)`: the valid prefix must survive the open;
        // `set_len` below trims exactly the damaged tail.
        fs::OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)
    })?;
    retry_io("truncating checkpoint to its valid prefix", || file.set_len(outcome.valid_len))?;
    retry_io("seeking checkpoint end", || file.seek(SeekFrom::End(0)).map(|_| ()))?;
    let frames = outcome.frames.len() as u64;
    Ok((outcome, CheckpointWriter { file, path: path.to_path_buf(), frames }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ola_checkpoint_tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.ckpt", std::process::id()))
    }

    fn frame(i: u64) -> JsonValue {
        JsonValue::Object(vec![
            ("kind".into(), JsonValue::str("table")),
            ("unit".into(), JsonValue::str(format!("unit-{i}"))),
            ("value".into(), JsonValue::U64(i * 37)),
        ])
    }

    #[test]
    fn round_trip_preserves_frames_in_order() {
        let path = tmp("round_trip");
        let mut w = CheckpointWriter::create(&path).unwrap();
        for i in 0..5 {
            w.append(&frame(i)).unwrap();
        }
        assert_eq!(w.frames(), 5);
        let out = read_frames(&path).unwrap();
        assert!(out.damage.is_none());
        assert_eq!(out.frames, (0..5).map(frame).collect::<Vec<_>>());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let out = read_frames(Path::new("/nonexistent/ola.ckpt")).unwrap();
        assert!(out.frames.is_empty() && out.damage.is_none() && out.valid_len == 0);
    }

    #[test]
    fn truncation_at_every_byte_keeps_the_valid_prefix() {
        let path = tmp("truncate_all");
        let mut w = CheckpointWriter::create(&path).unwrap();
        for i in 0..3 {
            w.append(&frame(i)).unwrap();
        }
        drop(w);
        let full = fs::read(&path).unwrap();
        // Frame boundaries: prefix sums of frame byte lengths.
        let mut bounds = vec![0usize];
        {
            let mut off = 0usize;
            while off < full.len() {
                let len = u32::from_le_bytes(full[off + 4..off + 8].try_into().unwrap()) as usize;
                off += HEADER_LEN + len;
                bounds.push(off);
            }
        }
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let out = read_frames(&path).unwrap();
            let whole = bounds.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(out.frames.len(), whole, "cut at {cut}");
            assert_eq!(out.valid_len as usize, bounds[whole], "cut at {cut}");
            assert_eq!(out.damage.is_some(), cut != bounds[whole], "cut at {cut}");
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tampering_any_byte_is_detected_not_replayed() {
        let path = tmp("tamper");
        let mut w = CheckpointWriter::create(&path).unwrap();
        for i in 0..3 {
            w.append(&frame(i)).unwrap();
        }
        drop(w);
        let clean = fs::read(&path).unwrap();
        // Flip one byte in the middle frame's payload region.
        let len0 = u32::from_le_bytes(clean[4..8].try_into().unwrap()) as usize;
        let f1 = HEADER_LEN + len0;
        let mut dirty = clean.clone();
        dirty[f1 + HEADER_LEN + 2] ^= 0x40;
        fs::write(&path, &dirty).unwrap();
        let out = read_frames(&path).unwrap();
        assert_eq!(out.frames.len(), 1, "only the untampered prefix survives");
        assert!(out.damage.as_deref().unwrap().contains("digest mismatch"));
        // Recovery quarantines and truncates; appending then resumes cleanly.
        let (resumed, mut w2) = open_resumable(&path).unwrap();
        assert_eq!(resumed.frames.len(), 1);
        assert!(quarantine_path(&path).exists());
        w2.append(&frame(1)).unwrap();
        w2.append(&frame(2)).unwrap();
        drop(w2);
        let healed = read_frames(&path).unwrap();
        assert!(healed.damage.is_none());
        assert_eq!(healed.frames, (0..3).map(frame).collect::<Vec<_>>());
        assert_eq!(fs::read(&path).unwrap(), clean, "healed file is bit-identical");
        fs::remove_file(&path).unwrap();
        fs::remove_file(quarantine_path(&path)).unwrap();
    }

    #[test]
    fn resume_append_after_clean_shutdown_continues_the_log() {
        let path = tmp("resume_clean");
        let mut w = CheckpointWriter::create(&path).unwrap();
        w.append(&frame(0)).unwrap();
        drop(w);
        let (out, mut w2) = open_resumable(&path).unwrap();
        assert!(out.damage.is_none());
        assert_eq!(out.frames.len(), 1);
        assert_eq!(w2.frames(), 1);
        w2.append(&frame(1)).unwrap();
        drop(w2);
        let all = read_frames(&path).unwrap();
        assert_eq!(all.frames, vec![frame(0), frame(1)]);
        assert!(!quarantine_path(&path).exists(), "clean logs are not quarantined");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_ends_the_prefix() {
        let path = tmp("bad_magic");
        let mut w = CheckpointWriter::create(&path).unwrap();
        w.append(&frame(0)).unwrap();
        drop(w);
        let mut bytes = fs::read(&path).unwrap();
        let end = bytes.len();
        bytes.extend_from_slice(b"GARBAGEGARBAGEGARBAGEGARBAGEGARBAGEGARBAGE");
        fs::write(&path, &bytes).unwrap();
        let out = read_frames(&path).unwrap();
        assert_eq!(out.frames.len(), 1);
        assert_eq!(out.valid_len as usize, end);
        assert!(out.damage.as_deref().unwrap().contains("bad magic"));
        fs::remove_file(&path).unwrap();
    }
}
