//! GOOD: the transition stays pure — everything it wants done leaves
//! as an Effect value.

pub enum Effect {
    Send,
    Note(&'static str),
}

pub struct TwoPcEngine;

impl TwoPcEngine {
    pub fn on_tick(&mut self) -> Vec<Effect> {
        collect_effects()
    }
}

fn collect_effects() -> Vec<Effect> {
    vec![Effect::Note("tick"), Effect::Send]
}
