//! Length-prefixed wire framing for clocksync's TCP front-end.
//!
//! `clocksync serve --listen`, the `loadgen` load generator and the
//! benchmark's wire arm exchange JSON commands and replies as frames: a
//! 4-byte big-endian length, then the payload. [`wire`] reads and writes
//! them and rejects a frame over [`MAX_FRAME_LEN`] before allocating it.
//!
//! The probe protocol's executors — the discrete-event engine and the
//! threaded one — live in `clocksync-sim`.
//!
//! # Examples
//!
//! ```
//! use clocksync_net::{read_frame, write_frame};
//!
//! let mut buf = Vec::new();
//! write_frame(&mut buf, br#"{"t":"outcome"}"#)?;
//! let mut stream = std::io::Cursor::new(buf);
//! assert_eq!(read_frame(&mut stream)?.as_deref(), Some(&br#"{"t":"outcome"}"#[..]));
//! # Ok::<(), clocksync_net::WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod wire;

pub use wire::{read_frame, write_frame, WireError, MAX_FRAME_LEN};
