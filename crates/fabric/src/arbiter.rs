//! Crossbar arbiters: the per-slot matching of ingress VOQs to egress ports.
//!
//! Two algorithms are provided behind one state machine,
//! [`CrossbarArbiter`]:
//!
//! * [`ArbiterKind::Islip`] — the iterative request/grant/accept scheduler of
//!   McKeown's iSLIP: every unmatched output grants to the requesting input
//!   closest to its round-robin grant pointer, every input accepts the
//!   granting output closest to its accept pointer, and (in the first
//!   iteration only, as in the original algorithm) accepted pointers advance
//!   one past the match — the "slip" that desynchronises the outputs and
//!   yields 100% throughput under admissible uniform traffic.
//! * [`ArbiterKind::Maximal`] — a greedy maximal-matching baseline: inputs
//!   are visited in a rotating priority order and each takes the first
//!   eligible free output after its scan pointer. Cheaper and simpler, but
//!   without iSLIP's desynchronisation argument.
//!
//! Both algorithms are deterministic functions of their pointer state and the
//! request matrix, which is what makes whole-fabric runs reproducible.
//! On a **contention-free** matrix — every input has traffic for at most one
//! output and every output is wanted by at most one input — both produce the
//! same (complete) matching; the unit tests pin that equivalence.
//!
//! # Word-parallel matching
//!
//! The arbiter matches on a [`RequestMatrix`]: bitsets of `⌈N/64⌉` `u64`
//! words, a row per input (the outputs it requests) and a column per output
//! (the inputs requesting it), beside its own masks of the free inputs and
//! the free, egress-ready outputs. The matrix belongs to the caller, who
//! keeps it current as cells move (see [`crate::VoqSwitch`]), so a slot's
//! matching reads the request state without probing it. Every choice the
//! algorithms make — an output's grant, an input's accept, a
//! maximal-matching input's pick — is "the first set bit at or cyclically
//! after a round-robin pointer" of one such bitset ANDed with a free mask:
//! `trailing_zeros` on the pointer's word with the bits below the pointer
//! masked off, then the words above it, then the words below it, then the
//! masked-off low bits. An iSLIP iteration or the maximal pass therefore
//! costs `O(N·⌈N/64⌉)` word operations instead of `O(N²)` pair scans, with
//! one code path for every port count. The result is bit-identical to the
//! scalar scan — same matching, same pointer evolution — which the unit
//! tests check against the scalar loops kept as a test oracle.

/// Which crossbar scheduling algorithm a fabric runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterKind {
    /// iSLIP-style iterative request/grant/accept.
    Islip {
        /// Matching iterations per slot. `0` means *auto*: `⌈log₂ ports⌉`,
        /// the classic convergence bound.
        iterations: usize,
    },
    /// Greedy maximal matching with rotating input priority.
    Maximal,
}

impl ArbiterKind {
    /// The effective iteration count for a fabric of `ports` ports.
    pub fn effective_iterations(self, ports: usize) -> usize {
        match self {
            ArbiterKind::Islip { iterations: 0 } => {
                (usize::BITS - ports.next_power_of_two().leading_zeros() - 1).max(1) as usize
            }
            ArbiterKind::Islip { iterations } => iterations,
            ArbiterKind::Maximal => 1,
        }
    }

    /// Short name for reports (`"islip"` / `"maximal"`).
    pub fn label(self) -> &'static str {
        match self {
            ArbiterKind::Islip { .. } => "islip",
            ArbiterKind::Maximal => "maximal",
        }
    }
}

/// Bits per bitset word.
const WORD: usize = u64::BITS as usize;

/// Which inputs hold a requestable cell for which outputs: the crossbar's
/// request matrix, kept as bitsets in both orientations.
///
/// A bitset over `ports` ports is `⌈ports/64⌉` consecutive `u64` words, bit
/// `p % 64` of word `p / 64` standing for port `p`; bits at or above `ports`
/// are always clear. [`RequestMatrix::set`] and [`RequestMatrix::clear`]
/// update one `(input, output)` pair in O(1), so a fabric whose request
/// state changes in a few places per slot never rebuilds the whole matrix.
#[derive(Debug, PartialEq, Eq)]
pub struct RequestMatrix {
    ports: usize,
    /// Words per bitset: `⌈ports/64⌉`.
    words: usize,
    /// `ports × words`: row `i` is the set of outputs input `i` requests —
    /// what the maximal matcher walks.
    rows: Vec<u64>,
    /// `ports × words`: row `j` is the set of inputs requesting output `j`,
    /// the transpose of `rows` — what iSLIP's grant step scans.
    cols: Vec<u64>,
}

impl RequestMatrix {
    /// An empty request matrix over `ports` inputs and outputs.
    pub fn new(ports: usize) -> Self {
        let words = ports.div_ceil(WORD);
        RequestMatrix {
            ports,
            words,
            rows: vec![0; ports * words],
            cols: vec![0; ports * words],
        }
    }

    /// Rebuilds the whole matrix from `requests(input, output)`, probed
    /// once per pair.
    pub fn fill(&mut self, requests: impl Fn(usize, usize) -> bool) {
        self.rows.fill(0);
        self.cols.fill(0);
        for i in 0..self.ports {
            for j in 0..self.ports {
                if requests(i, j) {
                    self.set(i, j);
                }
            }
        }
    }

    /// Marks that `input` requests `output`.
    #[inline]
    pub fn set(&mut self, input: usize, output: usize) {
        debug_assert!(input < self.ports && output < self.ports);
        self.rows[input * self.words + output / WORD] |= 1u64 << (output % WORD);
        self.cols[output * self.words + input / WORD] |= 1u64 << (input % WORD);
    }

    /// Marks that `input` no longer requests `output`.
    #[inline]
    pub fn clear(&mut self, input: usize, output: usize) {
        debug_assert!(input < self.ports && output < self.ports);
        self.rows[input * self.words + output / WORD] &= !(1u64 << (output % WORD));
        self.cols[output * self.words + input / WORD] &= !(1u64 << (input % WORD));
    }

    /// Whether `input` requests `output`.
    #[inline]
    pub fn contains(&self, input: usize, output: usize) -> bool {
        self.rows[input * self.words + output / WORD] & (1u64 << (output % WORD)) != 0
    }
}

/// The crossbar scheduler: pointer state plus bitset scratch, sized once per
/// fabric; it reads each slot's requests from a [`RequestMatrix`].
#[derive(Debug)]
pub struct CrossbarArbiter {
    kind: ArbiterKind,
    ports: usize,
    iterations: usize,
    /// Words per bitset: `⌈ports/64⌉`.
    words: usize,
    /// Per-output round-robin grant pointer (iSLIP).
    grant_ptr: Vec<u32>,
    /// Per-input round-robin accept pointer (iSLIP) / scan pointer (maximal).
    accept_ptr: Vec<u32>,
    /// Scratch, `ports × words`: row `i` is the set of outputs that granted
    /// input `i` in the current iSLIP iteration. Cleared once per slot: the
    /// rows written in earlier iterations belong to matched inputs, which
    /// are never read again.
    grants: Vec<u64>,
    /// Scratch: the inputs holding at least one grant this iteration, so
    /// the accept step visits only those rather than every free input;
    /// all-zero between iterations, as the accept step takes every word.
    granted_inputs: Vec<u64>,
    /// Scratch: the still-unmatched inputs (iSLIP).
    free_in: Vec<u64>,
    /// Scratch: the still-unmatched outputs with an egress credit.
    free_out: Vec<u64>,
}

impl CrossbarArbiter {
    /// Creates an arbiter for a fabric of `ports` input and output ports.
    pub fn new(kind: ArbiterKind, ports: usize) -> Self {
        let words = ports.div_ceil(WORD);
        CrossbarArbiter {
            kind,
            ports,
            iterations: kind.effective_iterations(ports),
            words,
            grant_ptr: vec![0; ports],
            accept_ptr: vec![0; ports],
            grants: vec![0; ports * words],
            granted_inputs: vec![0; words],
            free_in: vec![0; words],
            free_out: vec![0; words],
        }
    }

    /// The algorithm this arbiter runs.
    pub fn kind(&self) -> ArbiterKind {
        self.kind
    }

    /// Computes the matching of slot `slot`.
    ///
    /// `requests` says which inputs hold a requestable cell for which
    /// outputs; `output_ready[j]` whether output `j` has an egress credit
    /// this slot. The matching lands in `match_in` (per input: the matched
    /// output) and `match_out` (per output: the matched input); both are
    /// cleared first. Returns the number of matched pairs.
    ///
    /// A call that matches nothing leaves the arbiter bit-identical — iSLIP
    /// pointers move only on accepts, and the maximal matcher's rotating
    /// priority is derived from `slot` rather than stored — which is what
    /// lets the fabric's idle fast-forward skip provably matchless slots
    /// without observing them.
    pub fn schedule(
        &mut self,
        slot: u64,
        requests: &RequestMatrix,
        output_ready: &[bool],
        match_in: &mut [Option<u32>],
        match_out: &mut [Option<u32>],
    ) -> u64 {
        debug_assert_eq!(requests.ports, self.ports);
        debug_assert_eq!(match_in.len(), self.ports);
        debug_assert_eq!(match_out.len(), self.ports);
        debug_assert_eq!(output_ready.len(), self.ports);
        match_in.fill(None);
        match_out.fill(None);
        self.free_out.fill(0);
        for (j, &ready) in output_ready.iter().enumerate() {
            self.free_out[j / WORD] |= u64::from(ready) << (j % WORD);
        }
        match self.kind {
            ArbiterKind::Islip { .. } => self.islip(&requests.cols, match_in, match_out),
            ArbiterKind::Maximal => self.maximal(slot, &requests.rows, match_in, match_out),
        }
    }

    /// The iSLIP iterations over `cols`, the requesting inputs per output.
    fn islip(
        &mut self,
        cols: &[u64],
        match_in: &mut [Option<u32>],
        match_out: &mut [Option<u32>],
    ) -> u64 {
        let Self {
            ports: n,
            iterations,
            words,
            grant_ptr,
            accept_ptr,
            grants,
            granted_inputs,
            free_in,
            free_out,
            ..
        } = self;
        let (n, words) = (*n, *words);
        let mut matched = 0u64;
        // Every input starts free; bits at or above `n` stay clear.
        for (w, word) in free_in.iter_mut().enumerate() {
            *word = u64::MAX >> (WORD - (n - w * WORD).min(WORD));
        }
        // Cleared once per slot, not per iteration: an input that receives a
        // grant always accepts one, so a row written in one iteration belongs
        // to an input that is matched, and never read again, by the next.
        grants.fill(0);
        for iteration in 0..*iterations {
            // Grant: every unmatched ready output picks the requesting
            // unmatched input nearest (cyclically) to its grant pointer.
            for (out_word, &free) in free_out.iter().enumerate() {
                let mut outs = free;
                while outs != 0 {
                    let j = out_word * WORD + outs.trailing_zeros() as usize;
                    outs &= outs - 1;
                    let col = &cols[j * words..(j + 1) * words];
                    let start = grant_ptr[j] as usize;
                    if let Some(i) = first_set_from(words, start, |w| col[w] & free_in[w]) {
                        grants[i * words + out_word] |= 1u64 << (j % WORD);
                        granted_inputs[i / WORD] |= 1u64 << (i % WORD);
                    }
                }
            }
            // Accept: every input that received at least one grant accepts
            // the granting output nearest to its accept pointer. Pointers
            // advance only on first-iteration accepts (original iSLIP).
            let mut any = false;
            for (in_word, granted) in granted_inputs.iter_mut().enumerate() {
                let mut ins = std::mem::take(granted);
                while ins != 0 {
                    let i = in_word * WORD + ins.trailing_zeros() as usize;
                    ins &= ins - 1;
                    let offered = &grants[i * words..(i + 1) * words];
                    let start = accept_ptr[i] as usize;
                    if let Some(j) = first_set_from(words, start, |w| offered[w]) {
                        match_in[i] = Some(j as u32);
                        match_out[j] = Some(i as u32);
                        free_in[in_word] &= !(1u64 << (i % WORD));
                        free_out[j / WORD] &= !(1u64 << (j % WORD));
                        if iteration == 0 {
                            grant_ptr[j] = successor(i, n) as u32;
                            accept_ptr[i] = successor(j, n) as u32;
                        }
                        matched += 1;
                        any = true;
                    }
                }
            }
            if !any {
                break;
            }
        }
        matched
    }

    /// The rotating-priority maximal pass over `rows`, the requested
    /// outputs per input.
    fn maximal(
        &mut self,
        slot: u64,
        rows: &[u64],
        match_in: &mut [Option<u32>],
        match_out: &mut [Option<u32>],
    ) -> u64 {
        let Self {
            ports: n,
            words,
            accept_ptr,
            free_out,
            ..
        } = self;
        let (n, words) = (*n, *words);
        let mut i = (slot % n as u64) as usize;
        let mut matched = 0u64;
        for _ in 0..n {
            let row = &rows[i * words..(i + 1) * words];
            let start = accept_ptr[i] as usize;
            if let Some(j) = first_set_from(words, start, |w| row[w] & free_out[w]) {
                match_in[i] = Some(j as u32);
                match_out[j] = Some(i as u32);
                free_out[j / WORD] &= !(1u64 << (j % WORD));
                accept_ptr[i] = successor(j, n) as u32;
                matched += 1;
            }
            i = successor(i, n);
        }
        matched
    }
}

/// Port `p + 1`, wrapping to 0 at `ports` (a compare, not a division).
#[inline]
fn successor(p: usize, ports: usize) -> usize {
    if p + 1 == ports {
        0
    } else {
        p + 1
    }
}

/// The first set bit of a `words`-word bitset at or cyclically after bit
/// `start` (`start` below the bitset's width), reading word `w` as
/// `word(w)`: the rest of `start`'s word, the words above it, the words
/// below it, then the low bits of `start`'s word that the wrap reaches last.
#[inline]
fn first_set_from(words: usize, start: usize, word: impl Fn(usize) -> u64) -> Option<usize> {
    let first = start / WORD;
    let home = word(first);
    let above = home & (u64::MAX << (start % WORD));
    if above != 0 {
        return Some(first * WORD + above.trailing_zeros() as usize);
    }
    for w in (first + 1..words).chain(0..first) {
        let bits = word(w);
        if bits != 0 {
            return Some(w * WORD + bits.trailing_zeros() as usize);
        }
    }
    // `home` now holds only bits below `start`.
    (home != 0).then(|| first * WORD + home.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn matrix(n: usize, requests: impl Fn(usize, usize) -> bool) -> RequestMatrix {
        let mut m = RequestMatrix::new(n);
        m.fill(requests);
        m
    }

    fn run_matching(kind: ArbiterKind, n: usize, demand: &[Vec<bool>]) -> Vec<Option<u32>> {
        let mut arb = CrossbarArbiter::new(kind, n);
        let ready = vec![true; n];
        let mut match_in = vec![None; n];
        let mut match_out = vec![None; n];
        let requests = matrix(n, |i, j| demand[i][j]);
        arb.schedule(0, &requests, &ready, &mut match_in, &mut match_out);
        match_in
    }

    /// Pair-wise `set`/`clear` keep the rows and their transpose in step:
    /// after any sequence of updates the matrix equals one rebuilt from
    /// scratch, across word boundaries.
    #[test]
    fn set_and_clear_agree_with_a_full_fill() {
        let mut rng = StdRng::seed_from_u64(20_261_018);
        for n in [2usize, 8, 63, 64, 65, 130] {
            let mut truth = vec![false; n * n];
            let mut m = RequestMatrix::new(n);
            for _ in 0..4 * n {
                let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let on = rng.gen_bool(0.5);
                truth[i * n + j] = on;
                if on {
                    m.set(i, j);
                } else {
                    m.clear(i, j);
                }
                assert_eq!(m.contains(i, j), on);
            }
            assert_eq!(m, matrix(n, |i, j| truth[i * n + j]), "{n} ports");
        }
    }

    #[test]
    fn auto_iterations_scale_with_log_ports() {
        assert_eq!(
            ArbiterKind::Islip { iterations: 0 }.effective_iterations(2),
            1
        );
        assert_eq!(
            ArbiterKind::Islip { iterations: 0 }.effective_iterations(16),
            4
        );
        assert_eq!(
            ArbiterKind::Islip { iterations: 0 }.effective_iterations(17),
            5
        );
        assert_eq!(
            ArbiterKind::Islip { iterations: 3 }.effective_iterations(16),
            3
        );
        assert_eq!(ArbiterKind::Maximal.effective_iterations(16), 1);
    }

    #[test]
    fn maximal_matching_is_perfect_under_full_demand() {
        let n = 8;
        let demand = vec![vec![true; n]; n];
        let matches = run_matching(ArbiterKind::Maximal, n, &demand);
        let mut seen = vec![false; n];
        for m in &matches {
            let j = m.expect("every input matches under full demand") as usize;
            assert!(!seen[j], "output {j} matched twice");
            seen[j] = true;
        }
    }

    /// From cold (synchronised) pointers one iSLIP slot cannot match every
    /// port — that is the point of the algorithm: accepted matches *slip* the
    /// pointers apart, and once desynchronised every subsequent slot under
    /// full demand is a perfect matching.
    #[test]
    fn islip_desynchronises_into_perfect_matchings() {
        let n = 8;
        let mut arb = CrossbarArbiter::new(ArbiterKind::Islip { iterations: 0 }, n);
        let ready = vec![true; n];
        let mut match_in = vec![None; n];
        let mut match_out = vec![None; n];
        let mut matched_per_slot = Vec::new();
        let full = matrix(n, |_, _| true);
        for slot in 0..(4 * n as u64) {
            let matched = arb.schedule(slot, &full, &ready, &mut match_in, &mut match_out);
            matched_per_slot.push(matched);
        }
        assert!(
            *matched_per_slot.first().unwrap() < n as u64,
            "cold synchronised pointers collide by construction"
        );
        let tail = &matched_per_slot[matched_per_slot.len() - n..];
        assert!(
            tail.iter().all(|&m| m == n as u64),
            "desynchronised iSLIP must sustain perfect matchings: {matched_per_slot:?}"
        );
    }

    #[test]
    fn no_match_without_ready_outputs() {
        let n = 4;
        let mut arb = CrossbarArbiter::new(ArbiterKind::Islip { iterations: 0 }, n);
        let mut match_in = vec![None; n];
        let mut match_out = vec![None; n];
        let full = matrix(n, |_, _| true);
        let matched = arb.schedule(0, &full, &[false; 4], &mut match_in, &mut match_out);
        assert_eq!(matched, 0);
        assert!(match_in.iter().all(Option::is_none));
    }

    /// The satellite invariant: on contention-free matrices (a partial
    /// permutation of demands) iSLIP and the maximal-matching baseline make
    /// exactly the same — complete — matching, whatever their pointer state.
    #[test]
    fn islip_and_maximal_agree_on_contention_free_matrices() {
        let mut rng = StdRng::seed_from_u64(20_260_730);
        for _ in 0..200 {
            let n = rng.gen_range(2..10usize);
            // Random partial permutation: a shuffled output list, each input
            // keeping its output with probability 3/4.
            let mut outputs: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                outputs.swap(i, rng.gen_range(0..=i));
            }
            let mut demand = vec![vec![false; n]; n];
            let mut expected: Vec<Option<u32>> = vec![None; n];
            for i in 0..n {
                if rng.gen_range(0..4u32) < 3 {
                    demand[i][outputs[i]] = true;
                    expected[i] = Some(outputs[i] as u32);
                }
            }
            // Scramble pointer state with a few warm-up slots of full demand.
            for kind in [ArbiterKind::Islip { iterations: 0 }, ArbiterKind::Maximal] {
                let mut arb = CrossbarArbiter::new(kind, n);
                let ready = vec![true; n];
                let mut match_in = vec![None; n];
                let mut match_out = vec![None; n];
                let full = matrix(n, |_, _| true);
                for slot in 0..u64::from(rng.gen_range(0..5u32)) {
                    arb.schedule(slot, &full, &ready, &mut match_in, &mut match_out);
                }
                let requests = matrix(n, |i, j| demand[i][j]);
                arb.schedule(7, &requests, &ready, &mut match_in, &mut match_out);
                assert_eq!(
                    match_in, expected,
                    "{kind:?} must match every contention-free demand"
                );
            }
        }
    }

    /// Sentinel for "no input granted" in the per-output grant scratch.
    const NO_INPUT: u32 = u32::MAX;

    /// The arbiter's former scalar implementation, kept verbatim as the
    /// differential oracle: a `bool` eligibility snapshot and `O(N²)` pair
    /// scans per iteration.
    struct ScalarArbiter {
        ports: usize,
        iterations: usize,
        grant_ptr: Vec<u32>,
        accept_ptr: Vec<u32>,
        granted: Vec<u32>,
        elig: Vec<bool>,
    }

    impl ScalarArbiter {
        fn new(kind: ArbiterKind, ports: usize) -> Self {
            ScalarArbiter {
                ports,
                iterations: kind.effective_iterations(ports),
                grant_ptr: vec![0; ports],
                accept_ptr: vec![0; ports],
                granted: vec![NO_INPUT; ports],
                elig: vec![false; ports * ports],
            }
        }

        fn schedule(
            &mut self,
            kind: ArbiterKind,
            slot: u64,
            eligible: impl Fn(usize, usize) -> bool,
            output_ready: &[bool],
            match_in: &mut [Option<u32>],
            match_out: &mut [Option<u32>],
        ) -> u64 {
            match_in.fill(None);
            match_out.fill(None);
            let n = self.ports;
            for i in 0..n {
                for j in 0..n {
                    self.elig[i * n + j] = eligible(i, j);
                }
            }
            match kind {
                ArbiterKind::Islip { .. } => self.islip(output_ready, match_in, match_out),
                ArbiterKind::Maximal => self.maximal(slot, output_ready, match_in, match_out),
            }
        }

        fn islip(
            &mut self,
            output_ready: &[bool],
            match_in: &mut [Option<u32>],
            match_out: &mut [Option<u32>],
        ) -> u64 {
            let n = self.ports;
            let mut matched = 0u64;
            for iteration in 0..self.iterations {
                // Grant: every unmatched ready output picks the requesting
                // unmatched input nearest (cyclically) to its grant pointer.
                self.granted.fill(NO_INPUT);
                for j in 0..n {
                    if match_out[j].is_some() || !output_ready[j] {
                        continue;
                    }
                    let mut i = self.grant_ptr[j] as usize;
                    for _ in 0..n {
                        if i >= n {
                            i = 0;
                        }
                        if match_in[i].is_none() && self.elig[i * n + j] {
                            self.granted[j] = i as u32;
                            break;
                        }
                        i += 1;
                    }
                }
                // Accept: every input that received at least one grant accepts
                // the granting output nearest to its accept pointer. Pointers
                // advance only on first-iteration accepts (original iSLIP).
                let mut any = false;
                for (i, match_in_i) in match_in.iter_mut().enumerate() {
                    if match_in_i.is_some() {
                        continue;
                    }
                    let mut j = self.accept_ptr[i] as usize;
                    for _ in 0..n {
                        if j >= n {
                            j = 0;
                        }
                        if match_out[j].is_none() && self.granted[j] == i as u32 {
                            *match_in_i = Some(j as u32);
                            match_out[j] = Some(i as u32);
                            if iteration == 0 {
                                self.grant_ptr[j] = ((i + 1) % n) as u32;
                                self.accept_ptr[i] = ((j + 1) % n) as u32;
                            }
                            matched += 1;
                            any = true;
                            break;
                        }
                        j += 1;
                    }
                }
                if !any {
                    break;
                }
            }
            matched
        }

        fn maximal(
            &mut self,
            slot: u64,
            output_ready: &[bool],
            match_in: &mut [Option<u32>],
            match_out: &mut [Option<u32>],
        ) -> u64 {
            let n = self.ports;
            let priority = (slot % n as u64) as usize;
            let mut matched = 0u64;
            for k in 0..n {
                let i = (priority + k) % n;
                let mut j = self.accept_ptr[i] as usize;
                for _ in 0..n {
                    if j >= n {
                        j = 0;
                    }
                    if match_out[j].is_none() && output_ready[j] && self.elig[i * n + j] {
                        match_in[i] = Some(j as u32);
                        match_out[j] = Some(i as u32);
                        self.accept_ptr[i] = ((j + 1) % n) as u32;
                        matched += 1;
                        break;
                    }
                    j += 1;
                }
            }
            matched
        }
    }

    /// The bitset arbiter is the scalar one, bit for bit: same matching,
    /// same count and same pointer evolution, slot after slot, at every
    /// word boundary (1–3 words) and for every kind — under random request
    /// densities, random egress-ready masks and pointer state warmed up by
    /// the sequence itself.
    #[test]
    fn bitset_arbiter_matches_the_scalar_oracle() {
        let mut rng = StdRng::seed_from_u64(20_261_017);
        for n in [2usize, 3, 8, 31, 32, 33, 63, 64, 65, 100, 130] {
            for kind in [
                ArbiterKind::Islip { iterations: 0 },
                ArbiterKind::Islip { iterations: 2 },
                ArbiterKind::Maximal,
            ] {
                let mut arb = CrossbarArbiter::new(kind, n);
                let mut oracle = ScalarArbiter::new(kind, n);
                let (mut got_in, mut got_out) = (vec![None; n], vec![None; n]);
                let (mut want_in, mut want_out) = (vec![None; n], vec![None; n]);
                let mut slot = rng.gen_range(0..1_000u64);
                for step in 0..48 {
                    let density = [0.02, 0.3, 0.7, 0.95, 1.0][rng.gen_range(0..5usize)];
                    let demand: Vec<bool> = (0..n * n).map(|_| rng.gen_bool(density)).collect();
                    let ready_p = [0.0, 0.5, 0.9, 1.0][rng.gen_range(0..4usize)];
                    let ready: Vec<bool> = (0..n).map(|_| rng.gen_bool(ready_p)).collect();
                    let eligible = |i: usize, j: usize| demand[i * n + j];
                    let requests = matrix(n, eligible);
                    let got = arb.schedule(slot, &requests, &ready, &mut got_in, &mut got_out);
                    let want =
                        oracle.schedule(kind, slot, eligible, &ready, &mut want_in, &mut want_out);
                    let at = format!("{kind:?}, {n} ports, step {step}");
                    assert_eq!(got, want, "match count, {at}");
                    assert_eq!(got_in, want_in, "match_in, {at}");
                    assert_eq!(got_out, want_out, "match_out, {at}");
                    assert_eq!(arb.grant_ptr, oracle.grant_ptr, "grant pointers, {at}");
                    assert_eq!(arb.accept_ptr, oracle.accept_ptr, "accept pointers, {at}");
                    slot += rng.gen_range(1..4u64);
                }
            }
        }
    }
}
