//! The repeater block: broadcasting operands across index variables
//! (paper Definition 3.4, Figures 4 and 6).

use sam_sim::payload::tok;
use sam_sim::{Block, BlockStatus, ChannelId, Context, SimToken};
use sam_streams::Token;

/// Repeats each reference of the input reference stream once for every data
/// token of the corresponding fiber of the input coordinate stream.
///
/// The output reference stream mirrors the fiber structure of the input
/// coordinate stream: data tokens are replaced by the current reference and
/// control tokens pass through. Stop tokens on the input *reference* stream
/// are redundant with the coordinate stream's higher-level stops and are
/// absorbed.
///
/// Every innermost coordinate fiber consumes one reference, an empty one
/// included, except a bare stop that only closes outer levels (an outer
/// fiber with no inner fibers); the reference stream carries a stop there
/// itself. The block tells the two apart by matching each coordinate stop
/// above level 0 with the reference stop it mirrors, so a reference read
/// ahead past that stop is kept for the next fiber.
///
/// ```text
///  in_crd:  D, S0, 9, 8, 6, 2, 0      (the vector b in Figure 6)
///  in_ref:  D, 0                       (the scalar c's root reference)
///  out_ref: D, S0, 0, 0, 0, 0, 0
/// ```
#[derive(Debug)]
pub struct Repeater {
    name: String,
    in_crd: ChannelId,
    in_ref: ChannelId,
    out_ref: ChannelId,
    current: Option<SimToken>,
    /// Reference-stream stops absorbed minus coordinate stops above level 0
    /// consumed: positive while the reference stream runs ahead.
    stop_balance: i64,
    in_ref_done: bool,
    done: bool,
}

impl Repeater {
    /// Creates a repeater.
    pub fn new(name: impl Into<String>, in_crd: ChannelId, in_ref: ChannelId, out_ref: ChannelId) -> Self {
        Repeater {
            name: name.into(),
            in_crd,
            in_ref,
            out_ref,
            current: None,
            stop_balance: 0,
            in_ref_done: false,
            done: false,
        }
    }
}

impl Block for Repeater {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done {
            return BlockStatus::Done;
        }
        if !ctx.can_push(self.out_ref) {
            return BlockStatus::Busy;
        }
        // Fetch the next reference to repeat when none is held.
        if self.current.is_none() && !self.in_ref_done {
            if let Some(t) = ctx.peek(self.in_ref).cloned() {
                match t {
                    Token::Val(_) | Token::Empty => {
                        ctx.pop(self.in_ref);
                        self.current = Some(t);
                    }
                    Token::Stop(_) => {
                        // Redundant with the coordinate stream's hierarchy.
                        ctx.pop(self.in_ref);
                        self.stop_balance += 1;
                    }
                    Token::Done => {
                        ctx.pop(self.in_ref);
                        self.in_ref_done = true;
                    }
                }
            }
        }
        // Drive the output from the coordinate stream.
        let Some(head) = ctx.peek(self.in_crd).cloned() else {
            return BlockStatus::Busy;
        };
        match head {
            Token::Val(_) => {
                let Some(current) = self.current else {
                    // Wait for the reference to arrive.
                    return BlockStatus::Busy;
                };
                ctx.pop(self.in_crd);
                ctx.push(self.out_ref, current);
                BlockStatus::Busy
            }
            Token::Empty => {
                // An empty coordinate slot repeats nothing.
                ctx.pop(self.in_crd);
                ctx.push(self.out_ref, tok::empty());
                BlockStatus::Busy
            }
            Token::Stop(n) => {
                // A stop matching an already absorbed reference stop is bare:
                // any reference held belongs to the next fiber. Otherwise
                // the fiber consumes its reference, so wait until it (or the
                // reference stream's own stop) is visible.
                let bare = n > 0 && self.stop_balance > 0;
                if !bare && self.current.is_none() && !self.in_ref_done {
                    return BlockStatus::Busy;
                }
                ctx.pop(self.in_crd);
                ctx.push(self.out_ref, tok::stop(n));
                if n > 0 {
                    self.stop_balance -= 1;
                }
                if !bare {
                    // The next fiber repeats the next reference.
                    self.current = None;
                }
                BlockStatus::Busy
            }
            Token::Done => {
                ctx.pop(self.in_crd);
                ctx.push(self.out_ref, tok::done());
                // Drain whatever remains of the reference stream.
                while let Some(t) = ctx.peek(self.in_ref) {
                    let finished = t.is_done();
                    ctx.pop(self.in_ref);
                    if finished {
                        break;
                    }
                }
                self.done = true;
                BlockStatus::Done
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::payload::Payload;
    use sam_sim::Simulator;

    fn to_paper(tokens: &[SimToken]) -> String {
        let mut parts: Vec<String> = tokens
            .iter()
            .map(|t| match t {
                Token::Val(Payload::Ref(r)) => r.to_string(),
                Token::Val(Payload::Crd(c)) => c.to_string(),
                Token::Val(p) => p.to_string(),
                Token::Stop(n) => format!("S{n}"),
                Token::Empty => "N".to_string(),
                Token::Done => "D".to_string(),
            })
            .collect();
        parts.reverse();
        parts.join(", ")
    }

    #[test]
    fn figure6_scalar_broadcast() {
        let mut sim = Simulator::new();
        let crd = sim.add_channel("b_crd");
        let rf = sim.add_channel("c_root");
        let out = sim.add_channel("out");
        sim.record(out);
        sim.add_block(Box::new(Repeater::new("rep", crd, rf, out)));
        sim.preload(
            crd,
            vec![tok::crd(0), tok::crd(2), tok::crd(6), tok::crd(8), tok::crd(9), tok::stop(0), tok::done()],
        );
        sim.preload(rf, vec![tok::rf(0), tok::done()]);
        sim.run(100).unwrap();
        assert_eq!(to_paper(sim.history(out)), "D, S0, 0, 0, 0, 0, 0");
    }

    #[test]
    fn one_ref_per_fiber() {
        // Two fibers of coordinates, two references: each reference is
        // repeated once per coordinate of its fiber.
        let mut sim = Simulator::new();
        let crd = sim.add_channel("crd");
        let rf = sim.add_channel("ref");
        let out = sim.add_channel("out");
        sim.record(out);
        sim.add_block(Box::new(Repeater::new("rep", crd, rf, out)));
        sim.preload(
            crd,
            vec![tok::crd(1), tok::crd(3), tok::stop(0), tok::crd(0), tok::stop(1), tok::done()],
        );
        sim.preload(rf, vec![tok::rf(7), tok::rf(9), tok::stop(0), tok::done()]);
        sim.run(100).unwrap();
        assert_eq!(to_paper(sim.history(out)), "D, S1, 9, S0, 7, 7");
    }

    #[test]
    fn empty_fiber_repeats_zero_times() {
        let mut sim = Simulator::new();
        let crd = sim.add_channel("crd");
        let rf = sim.add_channel("ref");
        let out = sim.add_channel("out");
        sim.record(out);
        sim.add_block(Box::new(Repeater::new("rep", crd, rf, out)));
        // Middle fiber is empty: its reference is dropped.
        sim.preload(
            crd,
            vec![tok::crd(1), tok::stop(0), tok::stop(0), tok::crd(2), tok::stop(1), tok::done()],
        );
        sim.preload(rf, vec![tok::rf(5), tok::rf(6), tok::rf(7), tok::stop(0), tok::done()]);
        sim.run(100).unwrap();
        assert_eq!(to_paper(sim.history(out)), "D, S1, 7, S0, S0, 5");
    }

    #[test]
    fn bare_outer_stop_keeps_the_next_fibers_reference() {
        // The first outer fiber has no inner fibers: its bare S1 mirrors the
        // reference stream's S0, so the reference read ahead after that S0
        // still feeds the next fiber.
        let mut sim = Simulator::new();
        let crd = sim.add_channel("crd");
        let rf = sim.add_channel("ref");
        let out = sim.add_channel("out");
        sim.record(out);
        sim.add_block(Box::new(Repeater::new("rep", crd, rf, out)));
        sim.preload(rf, vec![tok::stop(0), tok::rf(1), tok::stop(1), tok::done()]);
        // The coordinates arrive late, after the reference was read ahead.
        let delay = sim.add_channel("delay");
        sim.add_block(Box::new(Delay { input: delay, output: crd, ticks: 4 }));
        sim.preload(delay, vec![tok::stop(1), tok::crd(0), tok::crd(1), tok::stop(2), tok::done()]);
        sim.run(100).unwrap();
        assert_eq!(to_paper(sim.history(out)), "D, S2, 1, 1, S1");
    }

    /// Forwards its input after idling `ticks` cycles.
    #[derive(Debug)]
    struct Delay {
        input: ChannelId,
        output: ChannelId,
        ticks: u32,
    }

    impl Block for Delay {
        fn name(&self) -> &str {
            "delay"
        }

        fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
            if self.ticks > 0 {
                self.ticks -= 1;
                return BlockStatus::Busy;
            }
            if !ctx.can_push(self.output) {
                return BlockStatus::Busy;
            }
            let Some(t) = ctx.peek(self.input).cloned() else {
                return BlockStatus::Busy;
            };
            ctx.pop(self.input);
            ctx.push(self.output, t);
            if t.is_done() {
                BlockStatus::Done
            } else {
                BlockStatus::Busy
            }
        }
    }

    #[test]
    fn empty_reference_is_broadcast_as_empty() {
        let mut sim = Simulator::new();
        let crd = sim.add_channel("crd");
        let rf = sim.add_channel("ref");
        let out = sim.add_channel("out");
        sim.record(out);
        sim.add_block(Box::new(Repeater::new("rep", crd, rf, out)));
        sim.preload(crd, vec![tok::crd(0), tok::crd(1), tok::stop(0), tok::done()]);
        sim.preload(rf, vec![tok::empty(), tok::done()]);
        sim.run(100).unwrap();
        let empties = sim.history(out).iter().filter(|t| t.is_empty_token()).count();
        assert_eq!(empties, 2);
    }
}
