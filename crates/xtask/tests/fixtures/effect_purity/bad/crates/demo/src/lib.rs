//! BAD: an engine transition reaches a helper that does console I/O.
//! The constructor's filesystem access is not a finding: only methods
//! taking `self` are transitions.

pub enum Effect {
    Send,
}

pub struct TwoPcEngine;

impl TwoPcEngine {
    pub fn recover(dir: &str) -> TwoPcEngine {
        let _ = std::fs::create_dir_all(dir);
        TwoPcEngine
    }

    pub fn on_tick(&mut self) -> Vec<Effect> {
        log_state();
        vec![Effect::Send]
    }
}

fn log_state() {
    println!("tick");
}
