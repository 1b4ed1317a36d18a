//! Panic payloads of tile workers.
//!
//! The raster join's executor (`raster_join::executor`) renders tiles on
//! worker threads and converts a panicking tile into a typed error; this is
//! the message it carries.

/// Extract a human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
