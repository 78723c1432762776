//! BAD: the gateway counts `dropped` and keeps `last_error`, but no code
//! reads either — only the derived `Debug` would show them. They change
//! no outcome.

#[derive(Debug, Default)]
pub struct Gateway {
    forwarded: u64,
    pub dropped: u64,
    last_error: Option<String>,
}

impl Gateway {
    pub fn forward(&mut self, backend: Option<u32>) -> Option<u32> {
        match backend {
            Some(b) => {
                self.forwarded += 1;
                Some(b)
            }
            None => {
                self.dropped += 1;
                self.last_error = Some("no backend".to_string());
                None
            }
        }
    }

    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }
}
