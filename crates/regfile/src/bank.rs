//! A single SRAM bank: valid-entry tracking and the power-gating state
//! machine of §5.3.

/// Power state of one register bank.
///
/// A bank becomes a gating candidate when it holds no valid entries; it
/// is *effectively* gated (leakage saved, wake-up required) only after a
/// hysteresis interval, which prevents gate/wake thrash when a
/// register's footprint oscillates. Waking costs `wakeup_latency` cycles
/// (Table 2: 10).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PowerState {
    /// Powered and usable.
    On,
    /// Empty since the given cycle; effectively gated (and saving
    /// leakage) from `since + hysteresis` onwards.
    Gated {
        /// Cycle at which the bank became empty.
        since: u64,
    },
    /// Waking up; usable from `ready_at`.
    Waking {
        /// First cycle at which the bank is usable again.
        ready_at: u64,
    },
}

/// One bank: a valid-entry counter plus power state and access counters.
///
/// The actual register *data* lives in the [`RegisterFile`]'s logical
/// store; the bank only tracks physical occupancy, which is all that
/// power gating and energy accounting need.
///
/// [`RegisterFile`]: crate::RegisterFile
#[derive(Clone, Debug)]
pub struct Bank {
    valid_entries: usize,
    state: PowerState,
    reads: u64,
    writes: u64,
    gated_cycles: u64,
    wakeups: u64,
    hysteresis: u64,
}

impl Bank {
    /// A new bank: empty, and a gating candidate from cycle 0 if gating
    /// is enabled.
    pub fn new(gating: bool, hysteresis: u64) -> Self {
        Bank {
            valid_entries: 0,
            state: if gating {
                PowerState::Gated { since: 0 }
            } else {
                PowerState::On
            },
            reads: 0,
            writes: 0,
            gated_cycles: 0,
            wakeups: 0,
            hysteresis,
        }
    }

    /// Current power state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// Number of valid entries currently stored in the bank.
    pub fn valid_entries(&self) -> usize {
        self.valid_entries
    }

    /// Whether the bank can service an access at `now` without a wake-up.
    pub fn is_ready(&self, now: u64) -> bool {
        match self.state {
            PowerState::On => true,
            PowerState::Waking { ready_at } => now >= ready_at,
            // Within the hysteresis window the bank has not actually been
            // gated yet.
            PowerState::Gated { since } => now < since + self.hysteresis,
        }
    }

    /// Ensures the bank is powered for an access at `now`.
    ///
    /// Returns `None` if the bank is usable immediately, or
    /// `Some(ready_at)` if a wake-up was started (or is in flight) and the
    /// caller must retry at `ready_at`.
    pub fn ensure_on(&mut self, now: u64, wakeup_latency: u64) -> Option<u64> {
        match self.state {
            PowerState::On => None,
            PowerState::Waking { ready_at } if now >= ready_at => {
                self.state = PowerState::On;
                None
            }
            PowerState::Waking { ready_at } => Some(ready_at),
            PowerState::Gated { since } => {
                let effective = since + self.hysteresis;
                if now < effective {
                    // Hysteresis window: the bank never actually gated.
                    self.state = PowerState::On;
                    return None;
                }
                self.gated_cycles += now - effective;
                self.wakeups += 1;
                if wakeup_latency == 0 {
                    self.state = PowerState::On;
                    None
                } else {
                    let ready_at = now + wakeup_latency;
                    self.state = PowerState::Waking { ready_at };
                    Some(ready_at)
                }
            }
        }
    }

    /// Records that an entry became valid in this bank.
    pub fn add_valid(&mut self) {
        self.valid_entries += 1;
    }

    /// Records that an entry became invalid; marks the bank a gating
    /// candidate if it is now empty and gating is enabled.
    ///
    /// # Panics
    ///
    /// Panics if the bank has no valid entries — that is an accounting bug
    /// in the caller.
    pub fn remove_valid(&mut self, now: u64, gating: bool) {
        assert!(self.valid_entries > 0, "remove_valid on empty bank");
        self.valid_entries -= 1;
        if gating && self.valid_entries == 0 {
            self.gate(now);
        }
    }

    /// Marks the bank a gating candidate if it is currently on.
    pub fn gate(&mut self, now: u64) {
        if matches!(self.state, PowerState::On | PowerState::Waking { .. }) {
            self.state = PowerState::Gated { since: now };
        }
    }

    /// Counts a read access.
    pub fn record_read(&mut self) {
        self.reads += 1;
    }

    /// Counts a write access.
    pub fn record_write(&mut self) {
        self.writes += 1;
    }

    /// Total reads serviced.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total writes serviced.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Wake-ups performed.
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    /// Gated cycles accumulated up to `end` (closes the currently-open
    /// gated interval, net of hysteresis, without changing state).
    pub fn gated_cycles_at(&self, end: u64) -> u64 {
        match self.state {
            PowerState::Gated { since } => {
                self.gated_cycles + end.saturating_sub(since + self.hysteresis)
            }
            _ => self.gated_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_bank_is_gated_when_gating_enabled() {
        assert_eq!(Bank::new(true, 0).state(), PowerState::Gated { since: 0 });
        assert_eq!(Bank::new(false, 0).state(), PowerState::On);
    }

    #[test]
    fn wakeup_takes_latency_cycles() {
        let mut b = Bank::new(true, 0);
        assert_eq!(b.ensure_on(100, 10), Some(110));
        assert_eq!(b.state(), PowerState::Waking { ready_at: 110 });
        // Retrying early still blocks.
        assert_eq!(b.ensure_on(105, 10), Some(110));
        // At ready time the bank turns on.
        assert_eq!(b.ensure_on(110, 10), None);
        assert_eq!(b.state(), PowerState::On);
        assert_eq!(b.wakeups(), 1);
    }

    #[test]
    fn zero_latency_wakeup_is_instant() {
        let mut b = Bank::new(true, 0);
        assert_eq!(b.ensure_on(5, 0), None);
        assert_eq!(b.state(), PowerState::On);
    }

    #[test]
    fn access_within_hysteresis_is_free() {
        let mut b = Bank::new(true, 64);
        b.ensure_on(0, 0);
        b.gate(100);
        // Re-access at 120, inside the 64-cycle window: no wake-up, no
        // gated cycles.
        assert_eq!(b.ensure_on(120, 10), None);
        assert_eq!(b.wakeups(), 0);
        assert_eq!(b.gated_cycles_at(200), 0);
    }

    #[test]
    fn access_after_hysteresis_pays_wakeup() {
        let mut b = Bank::new(true, 64);
        b.ensure_on(0, 0);
        b.gate(100);
        // Effective gating at 164; access at 200 pays the wake-up and
        // banked 200-164 = 36 gated cycles.
        assert_eq!(b.ensure_on(200, 10), Some(210));
        assert_eq!(b.wakeups(), 1);
        assert_eq!(b.gated_cycles_at(1000), 36);
    }

    #[test]
    fn gated_cycles_net_of_hysteresis() {
        let mut b = Bank::new(true, 64);
        b.ensure_on(0, 0);
        b.gate(100);
        assert_eq!(b.gated_cycles_at(164), 0);
        assert_eq!(b.gated_cycles_at(264), 100);
    }

    #[test]
    fn gated_cycles_accumulate_across_intervals() {
        let mut b = Bank::new(true, 0);
        // Gated [0, 50): wake at 50.
        b.ensure_on(50, 0);
        assert_eq!(b.gated_cycles_at(50), 50);
        // On [50, 80), gate again at 80.
        b.gate(80);
        assert_eq!(b.gated_cycles_at(100), 50 + 20);
    }

    #[test]
    fn valid_tracking_gates_empty_bank() {
        let mut b = Bank::new(true, 0);
        b.ensure_on(0, 0);
        b.add_valid();
        b.add_valid();
        b.remove_valid(10, true);
        assert_eq!(b.state(), PowerState::On);
        b.remove_valid(20, true);
        assert_eq!(b.state(), PowerState::Gated { since: 20 });
    }

    #[test]
    fn no_gating_when_disabled() {
        let mut b = Bank::new(false, 0);
        b.add_valid();
        b.remove_valid(10, false);
        assert_eq!(b.state(), PowerState::On);
        assert_eq!(b.gated_cycles_at(100), 0);
    }

    #[test]
    #[should_panic(expected = "empty bank")]
    fn remove_valid_on_empty_bank_panics() {
        Bank::new(true, 0).remove_valid(0, true);
    }

    #[test]
    fn access_counters() {
        let mut b = Bank::new(false, 0);
        b.record_read();
        b.record_read();
        b.record_write();
        assert_eq!(b.reads(), 2);
        assert_eq!(b.writes(), 1);
    }

    #[test]
    fn is_ready_reflects_state_and_hysteresis() {
        let mut b = Bank::new(true, 8);
        assert!(b.is_ready(0), "within hysteresis the bank is still on");
        assert!(!b.is_ready(8));
        b.ensure_on(8, 10);
        assert!(!b.is_ready(12));
        assert!(b.is_ready(18));
    }
}
