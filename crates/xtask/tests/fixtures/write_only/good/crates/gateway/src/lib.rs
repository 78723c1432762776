//! GOOD: every field is read — `forwarded` by a field access, `last_error`
//! by a struct pattern, `dropped` by the crate's integration test.

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

    pub fn last_error(&self) -> Option<&str> {
        let Gateway { last_error, .. } = self;
        last_error.as_deref()
    }
}
