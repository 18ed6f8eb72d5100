//! # vrdf-apps — ready-made application graphs
//!
//! Concrete workloads for tests and benchmarks: the paper's MP3 playback
//! case study (Section 5), a fork/join variant of it (stereo demux →
//! per-channel decoders → mux), and seeded generators of random feasible
//! chains and fork/join DAGs for property-style cross-validation.  The
//! crate's one binary, `vrdf`, drives them from the command line
//! (`vrdf minimize|baseline|faults|fleet`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use vrdf_core::{
    derive_rates, AnalysisError, QuantumSet, Rational, TaskGraph, ThroughputConstraint,
};

/// The buffer capacities published for the MP3 chain in Section 5, in
/// chain order (`d1`, `d2`, `d3`).
pub const MP3_PUBLISHED_CAPACITIES: [u64; 3] = [6015, 3263, 882];

/// The MP3 playback chain of Fig. 5: CD block reader → MP3 decoder →
/// sample-rate converter → DAC, with the paper's worst-case response
/// times (in seconds).
///
/// # Examples
///
/// ```
/// use vrdf_core::compute_buffer_capacities;
///
/// let tg = vrdf_apps::mp3_chain();
/// let analysis = compute_buffer_capacities(&tg, vrdf_apps::mp3_constraint()).unwrap();
/// let caps: Vec<u64> = analysis.capacities().iter().map(|c| c.capacity).collect();
/// assert_eq!(caps, vrdf_apps::MP3_PUBLISHED_CAPACITIES);
/// ```
#[allow(clippy::unwrap_used, clippy::expect_used)] // fixed, doctest-covered constants
pub fn mp3_chain() -> TaskGraph {
    TaskGraph::linear_chain(
        [
            ("vBR", Rational::new(512, 10_000)),
            ("vMP3", Rational::new(24, 1000)),
            ("vSRC", Rational::new(10, 1000)),
            ("vDAC", Rational::new(1, 44_100)),
        ],
        [
            (
                "d1",
                QuantumSet::constant(2048),
                QuantumSet::range_inclusive(0, 960).expect("valid range"),
            ),
            ("d2", QuantumSet::constant(1152), QuantumSet::constant(480)),
            ("d3", QuantumSet::constant(441), QuantumSet::constant(1)),
        ],
    )
    .expect("the MP3 chain is a valid chain")
}

/// The MP3 chain's throughput constraint: the DAC fires strictly
/// periodically at 44.1 kHz.
#[allow(clippy::unwrap_used, clippy::expect_used)] // fixed, doctest-covered constants
pub fn mp3_constraint() -> ThroughputConstraint {
    ThroughputConstraint::on_sink(Rational::new(1, 44_100)).expect("positive period")
}

/// A fork/join stereo variant of the MP3 case study — the first workload
/// past the paper's Section 3.1 chain restriction.
///
/// The CD block reader feeds a demultiplexer that splits the compressed
/// stream into two channel streams; each channel is converted by its own
/// decoder, and an interleaver (`vMux`) joins them back in front of the
/// DAC:
///
/// ```text
///            ┌─ dL ─ vL ─ mL ─┐
/// vBR ─ d1 ─ vDemux           vMux ─ d3 ─ vDAC
///            └─ dR ─ vR ─ mR ─┘
/// ```
///
/// Rates mirror the MP3 chain: `vDemux` decodes a frame every 24 ms
/// (1152 samples per channel), the per-channel converters run at the
/// 10 ms cadence of `vSRC`, and the DAC drains one interleaved sample
/// per 1/44100 s.  A `vDemux` firing needs space on *both* channel
/// buffers; a `vMux` firing needs data from *both* converters — the
/// fork/join semantics the general analysis and simulator must handle.
///
/// # Examples
///
/// ```
/// use vrdf_core::compute_buffer_capacities;
///
/// let tg = vrdf_apps::mp3_fork_join();
/// let analysis = compute_buffer_capacities(&tg, vrdf_apps::mp3_constraint()).unwrap();
/// assert_eq!(analysis.capacities().len(), 6);
/// ```
#[allow(clippy::unwrap_used, clippy::expect_used)] // fixed, doctest-covered constants
pub fn mp3_fork_join() -> TaskGraph {
    let mut tg = TaskGraph::new();
    let vbr = tg.add_task("vBR", Rational::new(512, 10_000)).unwrap();
    let demux = tg.add_task("vDemux", Rational::new(24, 1000)).unwrap();
    let left = tg.add_task("vL", Rational::new(10, 1000)).unwrap();
    let right = tg.add_task("vR", Rational::new(10, 1000)).unwrap();
    let mux = tg.add_task("vMux", Rational::new(1, 1000)).unwrap();
    let dac = tg.add_task("vDAC", Rational::new(1, 44_100)).unwrap();
    let constant = QuantumSet::constant;
    tg.connect(
        "d1",
        vbr,
        demux,
        constant(2048),
        QuantumSet::range_inclusive(0, 960).expect("valid range"),
    )
    .unwrap();
    tg.connect("dL", demux, left, constant(1152), constant(480))
        .unwrap();
    tg.connect("dR", demux, right, constant(1152), constant(480))
        .unwrap();
    tg.connect("mL", left, mux, constant(441), constant(441))
        .unwrap();
    tg.connect("mR", right, mux, constant(441), constant(441))
        .unwrap();
    tg.connect("d3", mux, dac, constant(441), constant(1))
        .unwrap();
    tg
}

/// The initial tokens `δ0` on the MP3 feedback edge of
/// [`mp3_feedback`] — enough pre-filled decode credits that `vMP3`
/// never starves on the back-edge while the loop's transient settles
/// (the self-timed validation battery pins this empirically).
pub const MP3_FEEDBACK_INITIAL_TOKENS: u64 = 128;

/// The MP3 chain of [`mp3_chain`] closed by a rate-control feedback
/// edge: the sample-rate converter grants decode credits back to the
/// MP3 decoder, bounding how far the decoder may run ahead of the
/// converter.
///
/// ```text
/// vBR ─ d1 ─ vMP3 ─ d2 ─ vSRC ─ d3 ─ vDAC
///             ▲           │
///             └── fb ◄────┘   (δ0 initial tokens)
/// ```
///
/// The back-edge is rate-balanced with the forward chain: `vSRC`
/// produces 5 credits per 10 ms firing and `vMP3` consumes 12 per
/// 24 ms firing — 0.5 credits/ms on both sides — so the rate
/// assignment and every forward capacity are *identical* to the
/// acyclic chain's; only the feedback buffer itself is new, sized as
/// Eq. (4) plus its initial-token footprint.
///
/// The cycle `vMP3 → d2 → vSRC → fb → vMP3` is deliberately
/// *constant-rate on every edge*: the per-pair sufficiency guarantee
/// extends to such cycles, and the self-timed battery validates it.
/// Routing the back-edge around the variable-rate `d1` instead (e.g.
/// `vSRC → vBR`) admits scenarios where the cycle wedges for *any*
/// finite `δ0` — the consumer on `d1` drawing its minimum `γ̌ = 0`
/// forever blocks `vBR` on space, stops the credit recycle, and
/// starves the DAC; `vrdf-sim`'s cross-validation tests pin that
/// falsification.
///
/// # Examples
///
/// ```
/// use vrdf_core::compute_buffer_capacities;
///
/// let tg = vrdf_apps::mp3_feedback();
/// let analysis = compute_buffer_capacities(&tg, vrdf_apps::mp3_constraint()).unwrap();
/// let forward: Vec<u64> = analysis
///     .capacities()
///     .iter()
///     .filter(|c| c.name != "fb")
///     .map(|c| c.capacity)
///     .collect();
/// assert_eq!(forward, vrdf_apps::MP3_PUBLISHED_CAPACITIES);
/// ```
#[allow(clippy::unwrap_used, clippy::expect_used)] // fixed, doctest-covered constants
pub fn mp3_feedback() -> TaskGraph {
    let mut tg = mp3_chain();
    let src = tg.task_by_name("vSRC").expect("vSRC exists");
    let mp3 = tg.task_by_name("vMP3").expect("vMP3 exists");
    tg.connect_feedback(
        "fb",
        src,
        mp3,
        QuantumSet::constant(5),
        QuantumSet::constant(12),
        MP3_FEEDBACK_INITIAL_TOKENS,
    )
    .expect("the feedback edge is rate-balanced and tokened");
    tg
}

/// A bundled case study resolved by name: the graph, its throughput
/// constraint, and the strings the `vrdf` subcommands print.
///
/// One registry serves the `vrdf` binary's `minimize`, `baseline` and
/// `faults` subcommands and the benches, so graph names and labels
/// cannot drift between them.
#[derive(Clone, Debug)]
pub struct CaseStudy {
    /// The canonical name (`"mp3"`, `"fork-join"`, `"mp3-feedback"`).
    pub name: &'static str,
    /// A human-readable label for report headers.
    pub label: &'static str,
    /// The application graph.
    pub graph: TaskGraph,
    /// Its throughput constraint.
    pub constraint: ThroughputConstraint,
    /// Capacities published in the paper, when the case study has them
    /// (`vrdf` checks the analysis reproduces these before reporting).
    pub published_capacities: Option<&'static [u64]>,
}

/// Canonical names accepted by [`case_study`], for usage strings.
pub const CASE_STUDY_NAMES: [&str; 3] = ["mp3", "fork-join", "mp3-feedback"];

/// Resolves a case study by name (`"forkjoin"` is accepted as an alias
/// of `"fork-join"`, and `"mp3feedback"`/`"feedback"` of
/// `"mp3-feedback"`); `None` for unknown names.
///
/// # Examples
///
/// ```
/// let study = vrdf_apps::case_study("mp3").unwrap();
/// assert_eq!(study.graph.task_count(), 4);
/// assert!(vrdf_apps::case_study("nope").is_none());
/// ```
pub fn case_study(name: &str) -> Option<CaseStudy> {
    match name {
        "mp3" => Some(CaseStudy {
            name: "mp3",
            label: "MP3 playback chain",
            graph: mp3_chain(),
            constraint: mp3_constraint(),
            published_capacities: Some(&MP3_PUBLISHED_CAPACITIES),
        }),
        "fork-join" | "forkjoin" => Some(CaseStudy {
            name: "fork-join",
            label: "MP3 stereo fork/join graph",
            graph: mp3_fork_join(),
            constraint: mp3_constraint(),
            published_capacities: None,
        }),
        "mp3-feedback" | "mp3feedback" | "feedback" => Some(CaseStudy {
            name: "mp3-feedback",
            label: "MP3 chain with rate-control feedback",
            graph: mp3_feedback(),
            constraint: mp3_constraint(),
            published_capacities: None,
        }),
        _ => None,
    }
}

/// The motivating producer–consumer pair of Fig. 1: `wa` produces 3
/// containers per execution, `wb` consumes 2 or 3.
#[allow(clippy::unwrap_used, clippy::expect_used)] // fixed, doctest-covered constants
pub fn fig1_pair() -> TaskGraph {
    TaskGraph::linear_chain(
        [("wa", Rational::ONE), ("wb", Rational::ONE)],
        [(
            "b_ab",
            QuantumSet::constant(3),
            QuantumSet::new([2, 3]).expect("non-empty"),
        )],
    )
    .expect("the pair is a valid chain")
}

/// Seeded generation of random *feasible* chains.
pub mod synthetic {
    use super::*;

    /// A tiny splitmix64-based PRNG — dependency-free and reproducible.
    #[derive(Clone, Debug)]
    pub struct Rng(u64);

    impl Rng {
        /// A generator seeded with `seed`.
        pub fn new(seed: u64) -> Rng {
            Rng(seed)
        }

        /// The next pseudo-random word: [`vrdf_sim::splitmix64`] of the
        /// state, which then advances by the mixer's increment.
        pub fn next_u64(&mut self) -> u64 {
            let word = vrdf_sim::splitmix64(self.0);
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            word
        }

        /// A value in `lo..=hi`.
        pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next_u64() % (hi - lo + 1)
        }
    }

    /// Knobs for [`random_chain`].
    #[derive(Clone, Debug)]
    pub struct ChainSpec {
        /// Minimum number of tasks (≥ 2).
        pub min_tasks: usize,
        /// Maximum number of tasks.
        pub max_tasks: usize,
        /// Largest quantum value generated.
        pub max_quantum: u64,
        /// Largest number of distinct values per quantum set.
        pub max_set_len: usize,
        /// Allow 0 in consumption sets (sink-constrained chains only
        /// support it there).
        pub allow_zero_consumption: bool,
        /// When `Some(n)`, generated response times are snapped *down*
        /// onto the grid `τ/n` at generation time, bounding the tick
        /// clock's denominator LCM by `den(τ)·n` regardless of chain
        /// length.  Flooring is sound here: the snapped value is still
        /// below the task's bound `φ(v)`, so it simply picks a different
        /// random feasible chain.
        pub rho_grid_subdivision: Option<u64>,
    }

    impl Default for ChainSpec {
        fn default() -> Self {
            ChainSpec {
                min_tasks: 2,
                max_tasks: 5,
                max_quantum: 8,
                max_set_len: 4,
                allow_zero_consumption: true,
                rho_grid_subdivision: None,
            }
        }
    }

    fn random_set(rng: &mut Rng, spec: &ChainSpec, allow_zero: bool) -> QuantumSet {
        let len = rng.range(1, spec.max_set_len as u64) as usize;
        let lo = u64::from(!allow_zero || rng.range(0, 3) != 0);
        let values: Vec<u64> = (0..len).map(|_| rng.range(lo, spec.max_quantum)).collect();
        QuantumSet::new(values).unwrap_or_else(|_| QuantumSet::constant(1))
    }

    /// Generates a random sink-constrained chain that is guaranteed
    /// *feasible*: response times are drawn as a fraction of each task's
    /// start-interval bound `φ(v)`, so the analysis never rejects it.
    ///
    /// Deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from [`TaskGraph`]; with a sane
    /// [`ChainSpec`] this does not happen.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate [`ChainSpec`] (`min_tasks < 2`,
    /// `min_tasks > max_tasks`, `max_quantum == 0`, `max_set_len == 0`,
    /// or `rho_grid_subdivision == Some(0)`).
    ///
    /// # Examples
    ///
    /// ```
    /// use vrdf_apps::synthetic::{random_chain, ChainSpec};
    /// use vrdf_core::compute_buffer_capacities;
    ///
    /// let (tg, constraint) = random_chain(7, &ChainSpec::default()).unwrap();
    /// assert!(compute_buffer_capacities(&tg, constraint).is_ok());
    /// ```
    pub fn random_chain(
        seed: u64,
        spec: &ChainSpec,
    ) -> Result<(TaskGraph, ThroughputConstraint), AnalysisError> {
        assert!(
            2 <= spec.min_tasks
                && spec.min_tasks <= spec.max_tasks
                && spec.max_quantum >= 1
                && spec.max_set_len >= 1
                && spec.rho_grid_subdivision != Some(0),
            "degenerate ChainSpec: need 2 <= min_tasks <= max_tasks, \
             max_quantum >= 1, max_set_len >= 1, rho_grid_subdivision >= 1"
        );
        let mut rng = Rng::new(seed);
        let n = rng.range(spec.min_tasks as u64, spec.max_tasks as u64) as usize;
        chain_of_length(&mut rng, n, spec)
    }

    /// Like [`random_chain`] but with an exact task count `len` — the
    /// knob the chain-scaling benchmarks sweep.  Deterministic in
    /// `(seed, len)`.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from [`TaskGraph`]; with a sane
    /// [`ChainSpec`] this does not happen.
    ///
    /// # Panics
    ///
    /// Panics when `len < 2` or on a degenerate [`ChainSpec`]
    /// (`max_quantum == 0`, `max_set_len == 0`, or
    /// `rho_grid_subdivision == Some(0)`).
    ///
    /// # Examples
    ///
    /// ```
    /// use vrdf_apps::synthetic::{random_chain_of_length, ChainSpec};
    ///
    /// let (tg, _) = random_chain_of_length(7, 16, &ChainSpec::default()).unwrap();
    /// assert_eq!(tg.task_count(), 16);
    /// ```
    pub fn random_chain_of_length(
        seed: u64,
        len: usize,
        spec: &ChainSpec,
    ) -> Result<(TaskGraph, ThroughputConstraint), AnalysisError> {
        assert!(
            len >= 2
                && spec.max_quantum >= 1
                && spec.max_set_len >= 1
                && spec.rho_grid_subdivision != Some(0),
            "degenerate request: need len >= 2, max_quantum >= 1, \
             max_set_len >= 1, rho_grid_subdivision >= 1"
        );
        chain_of_length(&mut Rng::new(seed), len, spec)
    }

    fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a.max(1)
    }

    /// Largest reduced numerator/denominator the running rate-ratio
    /// product `Π π̌ᵢ/γ̂ᵢ` may reach during chain generation.  The φ walk
    /// multiplies suffixes of this product into `τ`, so bounding the
    /// prefix at `2^16` keeps every intermediate of the analysis (suffix
    /// components ≤ `2^32`, Eq. 1–4 arithmetic a few small factors above
    /// that) far inside `i128` at any chain length.
    const RATIO_BOUND: u128 = 1 << 16;

    fn chain_of_length(
        rng: &mut Rng,
        n: usize,
        spec: &ChainSpec,
    ) -> Result<(TaskGraph, ThroughputConstraint), AnalysisError> {
        // Draw the quanta; production sets must not contain 0 in
        // sink-constrained mode.  Track the running reduced product of
        // the per-hop rate ratios π̌/γ̂ (the factors the φ walk chains
        // together): when admitting a hop would push either reduced
        // component past RATIO_BOUND, the hop is neutralized — its
        // consumption is pinned to the production minimum, making the
        // ratio exactly 1 — so the rate random-walk can no longer
        // overflow i128 on long chains.  Both sets are drawn before the
        // check, so the RNG stream (and every graph that never trips the
        // bound — in particular every chain of ≤ 5 hops, since a hop
        // scales one component by at most max_quantum = 8) is unchanged.
        let mut buffers = Vec::with_capacity(n - 1);
        let (mut ratio_num, mut ratio_den) = (1u128, 1u128);
        for i in 0..n - 1 {
            let production = random_set(rng, spec, false);
            let mut consumption = random_set(rng, spec, spec.allow_zero_consumption);
            let c_max = consumption.max() as u128;
            if c_max > 0 {
                let num = ratio_num * production.min() as u128;
                let den = ratio_den * c_max;
                let g = gcd_u128(num, den);
                let (num, den) = (num / g, den / g);
                if num > RATIO_BOUND || den > RATIO_BOUND {
                    consumption = QuantumSet::constant(production.min());
                } else {
                    (ratio_num, ratio_den) = (num, den);
                }
            }
            buffers.push((format!("b{i}"), production, consumption));
        }
        let tau = Rational::new(rng.range(1, 12) as i128, rng.range(1, 4) as i128);
        let constraint = ThroughputConstraint::on_sink(tau)?;

        // Phase 1: a zero-response-time skeleton, to learn each task's
        // start-interval bound φ(v).
        let skeleton = build(n, &buffers, |_| Rational::ZERO)?;
        let (_, rates) = derive_rates(&skeleton, constraint)?;
        let phis: Vec<Rational> = skeleton.tasks().map(|(t, _)| rates.phi(t)).collect();

        // Phase 2: the real chain, each response time a random fraction
        // (0 to 1) of its bound — always feasible.  With a grid
        // subdivision configured, snap each time down onto it (still
        // below the bound, so feasibility is preserved).
        let mut fracs = Vec::with_capacity(n);
        for _ in 0..n {
            fracs.push(Rational::new(rng.range(0, 8) as i128, 8));
        }
        let grid = spec
            .rho_grid_subdivision
            .map(|subdivision| tau / Rational::from(subdivision));
        let tg = build(n, &buffers, |i| {
            let rho = phis[i] * fracs[i];
            match grid {
                Some(g) => g * Rational::from((rho / g).floor()),
                None => rho,
            }
        })?;
        Ok((tg, constraint))
    }

    fn build(
        n: usize,
        buffers: &[(String, QuantumSet, QuantumSet)],
        rho: impl Fn(usize) -> Rational,
    ) -> Result<TaskGraph, AnalysisError> {
        let mut tg = TaskGraph::new();
        let mut ids = Vec::with_capacity(n);
        for i in 0..n {
            ids.push(tg.add_task(format!("t{i}"), rho(i))?);
        }
        for (i, (name, production, consumption)) in buffers.iter().enumerate() {
            tg.connect(
                name.clone(),
                ids[i],
                ids[i + 1],
                production.clone(),
                consumption.clone(),
            )?;
        }
        Ok(tg)
    }

    /// Knobs for [`random_dag`] / [`fork_join_of`].
    #[derive(Clone, Debug)]
    pub struct DagSpec {
        /// Largest number of parallel branches between the fork and the
        /// join (≥ 1; a width of 1 degenerates to a chain).
        pub max_width: usize,
        /// Largest number of tasks per branch (≥ 1).
        pub max_depth: usize,
        /// Largest per-edge carry quantum (production and consumption
        /// constant).
        pub max_quantum: u64,
        /// As [`ChainSpec::rho_grid_subdivision`]: snap response times
        /// *down* onto the grid `τ/n` at generation time, bounding the
        /// tick clock's denominator LCM.
        pub rho_grid_subdivision: Option<u64>,
        /// When `Some(h)`, close the fork/join into a cycle: add a
        /// feedback edge from the join sink back to the fork source
        /// carrying the same constant quantum on both sides (so it is
        /// rate-balanced by the generator's carry-balance invariant)
        /// with `q · (task_count + h)` initial tokens — enough credits
        /// that the source never starves on the back-edge while the
        /// forward pipeline fills, plus `h` firings of slack.  `None`
        /// (the default) keeps the corpus acyclic and bit-identical to
        /// earlier releases.
        pub feedback_headroom: Option<u64>,
    }

    impl Default for DagSpec {
        fn default() -> Self {
            DagSpec {
                max_width: 4,
                max_depth: 3,
                max_quantum: 8,
                rho_grid_subdivision: None,
                feedback_headroom: None,
            }
        }
    }

    /// Generates a random sink-constrained **fork/join DAG** that is
    /// guaranteed feasible: a source forks into 1 to `max_width` parallel
    /// branches of 1 to `max_depth` tasks each, joined into a single
    /// sink.  Deterministic in `seed`.
    ///
    /// Every edge carries the *same constant* quantum `q` on both sides
    /// (drawn per edge), so every task's start-interval bound `φ(v)`
    /// resolves to the sink period `τ` and the branches stay
    /// rate-balanced across the fork; variability comes from the
    /// topology and the response times, which are drawn as fractions of
    /// `τ` so the analysis never rejects the result.
    ///
    /// The balance is deliberate, not a shortcut: *independently*
    /// variable quanta on fork-coupled edges admit scenarios whose
    /// branch demand rates diverge without bound (a join consumer
    /// drawing its minimum forever on one branch throttles the shared
    /// fork ancestor through back-pressure and starves the sibling), so
    /// no finite capacity assignment exists for them — the oracle
    /// battery demonstrates this, and it is exactly why the paper states
    /// the per-pair guarantee for chains.  Data-dependent quantum *sets*
    /// therefore remain a chain(-segment) feature; see
    /// `vrdf-sim`'s fork/join tests for the falsification.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from [`TaskGraph`]; with a sane
    /// [`DagSpec`] this does not happen.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate [`DagSpec`] (zero width, depth, or
    /// quantum, or `rho_grid_subdivision == Some(0)`).
    ///
    /// # Examples
    ///
    /// ```
    /// use vrdf_apps::synthetic::{random_dag, DagSpec};
    /// use vrdf_core::compute_buffer_capacities;
    ///
    /// let (tg, constraint) = random_dag(7, &DagSpec::default()).unwrap();
    /// assert!(compute_buffer_capacities(&tg, constraint).is_ok());
    /// ```
    pub fn random_dag(
        seed: u64,
        spec: &DagSpec,
    ) -> Result<(TaskGraph, ThroughputConstraint), AnalysisError> {
        validate_dag_spec(spec);
        let mut rng = Rng::new(seed);
        let width = rng.range(1, spec.max_width as u64) as usize;
        let depth = rng.range(1, spec.max_depth as u64) as usize;
        build_fork_join(&mut rng, width, depth, spec)
    }

    /// Like [`random_dag`] but with an exact fork width and branch depth
    /// — the knobs the `dag_scaling` benchmark sweeps.  Deterministic in
    /// `(seed, width, depth)`.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from [`TaskGraph`]; with a sane
    /// [`DagSpec`] this does not happen.
    ///
    /// # Panics
    ///
    /// Panics when `width == 0` or `depth == 0`, or on a degenerate
    /// [`DagSpec`].
    pub fn fork_join_of(
        seed: u64,
        width: usize,
        depth: usize,
        spec: &DagSpec,
    ) -> Result<(TaskGraph, ThroughputConstraint), AnalysisError> {
        validate_dag_spec(spec);
        assert!(width >= 1 && depth >= 1, "need width >= 1 and depth >= 1");
        build_fork_join(&mut Rng::new(seed), width, depth, spec)
    }

    fn validate_dag_spec(spec: &DagSpec) {
        assert!(
            spec.max_width >= 1
                && spec.max_depth >= 1
                && spec.max_quantum >= 1
                && spec.rho_grid_subdivision != Some(0),
            "degenerate DagSpec: need max_width >= 1, max_depth >= 1, \
             max_quantum >= 1, rho_grid_subdivision >= 1"
        );
    }

    fn build_fork_join(
        rng: &mut Rng,
        width: usize,
        depth: usize,
        spec: &DagSpec,
    ) -> Result<(TaskGraph, ThroughputConstraint), AnalysisError> {
        let tau = Rational::new(rng.range(1, 12) as i128, rng.range(1, 4) as i128);
        let constraint = ThroughputConstraint::on_sink(tau)?;
        let grid = spec
            .rho_grid_subdivision
            .map(|subdivision| tau / Rational::from(subdivision));
        // With every edge carrying the same constant quantum on both
        // sides, phi(v) = tau for every task; any rho in [0, tau]
        // (snapped down when a grid is configured) keeps the graph
        // feasible.
        let rho = |rng: &mut Rng| {
            let raw = tau * Rational::new(rng.range(0, 8) as i128, 8);
            match grid {
                Some(g) => g * Rational::from((raw / g).floor()),
                None => raw,
            }
        };

        let mut tg = TaskGraph::new();
        let source = tg.add_task("src", rho(rng))?;
        let sink_rho = rho(rng);
        let mut branch_tails = Vec::with_capacity(width);
        for w in 0..width {
            let mut upstream = source;
            for d in 0..depth {
                let task = tg.add_task(format!("b{w}t{d}"), rho(rng))?;
                let q = rng.range(1, spec.max_quantum);
                tg.connect(
                    format!("b{w}e{d}"),
                    upstream,
                    task,
                    QuantumSet::constant(q),
                    QuantumSet::constant(q),
                )?;
                upstream = task;
            }
            branch_tails.push(upstream);
        }
        let sink = tg.add_task("snk", sink_rho)?;
        for (w, tail) in branch_tails.into_iter().enumerate() {
            let q = rng.range(1, spec.max_quantum);
            tg.connect(
                format!("j{w}"),
                tail,
                sink,
                QuantumSet::constant(q),
                QuantumSet::constant(q),
            )?;
        }
        if let Some(headroom) = spec.feedback_headroom {
            // Same constant quantum on both sides keeps phi(v) = tau on
            // the cycle, so the back-edge never tightens the rate
            // assignment; the initial tokens cover one source firing per
            // task of pipeline latency plus the requested slack.
            let q = rng.range(1, spec.max_quantum);
            let delta0 = q * (tg.task_count() as u64 + headroom);
            tg.connect_feedback(
                "fb",
                sink,
                source,
                QuantumSet::constant(q),
                QuantumSet::constant(q),
                delta0,
            )?;
        }
        Ok((tg, constraint))
    }
}

/// Trace-export plumbing behind the `vrdf` binary's `--trace-out`
/// flag: runs the graph traced at [`vrdf_sim::TraceLevel::All`] (every
/// firing and every occupancy change) under the all-max quantum scenario
/// with the Eq. (4) capacities applied and the endpoint strictly
/// periodic at the conservative offset, renders the firing timeline as
/// Chrome-trace/Perfetto JSON ([`vrdf_sim::perfetto_trace`]), and
/// writes it to `path`.
///
/// Returns the traced run's report so callers can surface firing
/// counts next to the file path.
///
/// # Errors
///
/// A human-readable message when the analysis, the simulator build, or
/// the file write fails.
pub fn export_trace(
    path: &std::path::Path,
    tg: &TaskGraph,
    constraint: ThroughputConstraint,
    endpoint_firings: u64,
) -> Result<vrdf_sim::SimReport, String> {
    use vrdf_sim::{
        conservative_offset, perfetto_trace, QuantumPlan, QuantumPolicy, SimConfig, Simulator,
        TraceLevel,
    };
    let analysis = vrdf_core::compute_buffer_capacities(tg, constraint)
        .map_err(|e| format!("analysis failed: {e}"))?;
    let mut sized = tg.clone();
    analysis.apply(&mut sized);
    let offset =
        conservative_offset(tg, &analysis).map_err(|e| format!("offset overflowed: {e}"))?;
    let mut config = SimConfig::periodic(constraint, offset);
    config.max_endpoint_firings = endpoint_firings;
    config.trace = TraceLevel::All;
    let report = Simulator::new(&sized, QuantumPlan::uniform(QuantumPolicy::Max), config)
        .map_err(|e| format!("simulator construction failed: {e}"))?
        .run();
    std::fs::write(path, perfetto_trace(&report))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(report)
}

/// The `--trace-out` endgame of every `vrdf` subcommand: export the trace via
/// [`export_trace`] and report the destination on stderr (so stdout
/// tables stay machine-diffable), or exit with status 1 on failure.
pub fn write_trace(
    path: &std::path::Path,
    tg: &TaskGraph,
    constraint: ThroughputConstraint,
    endpoint_firings: u64,
) {
    match export_trace(path, tg, constraint, endpoint_firings) {
        Ok(report) => {
            let firings: u64 = report.tasks.iter().map(|t| t.firings).sum();
            eprintln!(
                "trace: wrote {} ({} firings, {} events) — open in https://ui.perfetto.dev",
                path.display(),
                firings,
                report.events_processed
            );
        }
        Err(e) => {
            eprintln!("error: trace export failed: {e}");
            std::process::exit(1);
        }
    }
}

/// A mixed synthetic corpus for `vrdf fleet` and the benches: random
/// chains, fixed-shape fork/joins, random DAGs, and cyclic
/// (feedback-edge) graphs in round-robin order, every member generated
/// on a bounded response-time grid so the tick engine accepts it.
/// Deterministic in `(seed, count)`.
///
/// # Errors
///
/// [`AnalysisError::ArithmeticOverflow`] when `count` graphs cannot be
/// reserved; otherwise propagates [`AnalysisError`] from the generators
/// (none of the specs used here produce infeasible graphs in practice).
pub fn fleet_corpus(seed: u64, count: usize) -> Result<Vec<vrdf_sim::FleetItem>, AnalysisError> {
    let chain_spec = synthetic::ChainSpec {
        rho_grid_subdivision: Some(1024),
        ..synthetic::ChainSpec::default()
    };
    let dag_spec = synthetic::DagSpec {
        rho_grid_subdivision: Some(1024),
        ..synthetic::DagSpec::default()
    };
    let cyclic_spec = synthetic::DagSpec {
        feedback_headroom: Some(2),
        ..dag_spec.clone()
    };
    let chain_lens = [4usize, 6, 9, 13];
    let fork_shapes = [(2usize, 2usize), (3, 2), (2, 4), (4, 3)];

    let mut corpus = Vec::new();
    corpus
        .try_reserve_exact(count)
        .map_err(|_| AnalysisError::ArithmeticOverflow {
            context: "the corpus size",
        })?;
    for i in 0..count {
        let seed = seed.wrapping_add(i as u64);
        let variant = i / 4 % 4;
        let (name, (graph, constraint)) = match i % 4 {
            0 => (
                format!("chain-{i}"),
                synthetic::random_chain_of_length(seed, chain_lens[variant], &chain_spec)?,
            ),
            1 => {
                let (width, depth) = fork_shapes[variant];
                (
                    format!("forkjoin-{i}"),
                    synthetic::fork_join_of(seed, width, depth, &dag_spec)?,
                )
            }
            2 => (format!("dag-{i}"), synthetic::random_dag(seed, &dag_spec)?),
            _ => (
                format!("cyclic-{i}"),
                synthetic::random_dag(seed, &cyclic_spec)?,
            ),
        };
        corpus.push(vrdf_sim::FleetItem {
            name,
            graph,
            constraint,
        });
    }
    Ok(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrdf_core::compute_buffer_capacities;

    #[test]
    fn mp3_chain_reproduces_published_capacities() {
        let tg = mp3_chain();
        let analysis = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
        let caps: Vec<u64> = analysis.capacities().iter().map(|c| c.capacity).collect();
        assert_eq!(caps, MP3_PUBLISHED_CAPACITIES);
    }

    #[test]
    fn fleet_corpus_is_deterministic_and_mixed() {
        let a = fleet_corpus(7, 16).unwrap();
        let b = fleet_corpus(7, 16).unwrap();
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.graph.task_count(), y.graph.task_count());
        }
        // Round-robin over the four families, and every member feasible.
        assert!(a[0].name.starts_with("chain-"));
        assert!(a[1].name.starts_with("forkjoin-"));
        assert!(a[2].name.starts_with("dag-"));
        assert!(a[3].name.starts_with("cyclic-"));
        for item in &a {
            compute_buffer_capacities(&item.graph, item.constraint)
                .unwrap_or_else(|e| panic!("{} infeasible: {e}", item.name));
        }
    }

    #[test]
    fn export_trace_slice_count_matches_the_report_exactly() {
        let dir = std::env::temp_dir().join(format!("vrdf-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mp3.json");
        let report = export_trace(&path, &mp3_chain(), mp3_constraint(), 500).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        let slices = json.matches("\"ph\":\"X\"").count() as u64;
        let firings: u64 = report.tasks.iter().map(|t| t.firings).sum();
        assert_eq!(slices, firings, "one slice per completed firing");
        assert!(json.contains("\"ph\":\"C\""), "occupancy counter tracks");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn case_study_registry_resolves_names_and_aliases() {
        for name in CASE_STUDY_NAMES {
            let study = case_study(name).expect(name);
            assert_eq!(study.name, name);
            assert!(compute_buffer_capacities(&study.graph, study.constraint).is_ok());
        }
        // Alias and canonical resolve to the same study.
        let canonical = case_study("fork-join").unwrap();
        let alias = case_study("forkjoin").unwrap();
        assert_eq!(canonical.name, alias.name);
        assert_eq!(canonical.graph.task_count(), alias.graph.task_count());
        assert!(case_study("nope").is_none());
        // The mp3 study carries the published capacities.
        let mp3 = case_study("mp3").unwrap();
        assert_eq!(
            mp3.published_capacities,
            Some(&MP3_PUBLISHED_CAPACITIES[..])
        );
    }

    #[test]
    fn mp3_feedback_keeps_forward_capacities_and_rates() {
        let tg = mp3_feedback();
        let analysis = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
        // The rate-balanced back-edge changes no phi: the chain keeps
        // its published schedule.
        let phi = |name: &str| analysis.rates().phi(tg.task_by_name(name).unwrap());
        assert_eq!(phi("vBR"), Rational::new(512, 10_000));
        assert_eq!(phi("vMP3"), Rational::new(24, 1000));
        assert_eq!(phi("vSRC"), Rational::new(10, 1000));
        assert_eq!(phi("vDAC"), Rational::new(1, 44_100));
        // Forward capacities are bit-identical to the acyclic chain's;
        // the feedback buffer is Eq. (4) plus its initial tokens.
        let forward: Vec<u64> = analysis
            .capacities()
            .iter()
            .filter(|c| c.name != "fb")
            .map(|c| c.capacity)
            .collect();
        assert_eq!(forward, MP3_PUBLISHED_CAPACITIES);
        let fb = analysis
            .capacities()
            .iter()
            .find(|c| c.name == "fb")
            .expect("fb is analysed");
        assert_eq!(fb.initial_tokens, MP3_FEEDBACK_INITIAL_TOKENS);
        assert!(
            fb.capacity > MP3_FEEDBACK_INITIAL_TOKENS,
            "fb capacity {} must exceed its initial tokens",
            fb.capacity
        );
    }

    #[test]
    fn feedback_headroom_knob_produces_analysable_cyclic_dags() {
        let spec = synthetic::DagSpec {
            feedback_headroom: Some(2),
            ..synthetic::DagSpec::default()
        };
        for seed in 0..50 {
            let (tg, constraint) = synthetic::random_dag(seed, &spec).unwrap();
            let view = tg
                .condensed()
                .unwrap_or_else(|e| panic!("seed {seed} built an invalid cyclic graph: {e}"));
            assert_eq!(view.feedback_buffers().len(), 1, "seed {seed}");
            let analysis = compute_buffer_capacities(&tg, constraint);
            assert!(
                analysis.is_ok(),
                "seed {seed} produced an infeasible cyclic DAG: {:?}",
                analysis.err()
            );
            // The balanced back-edge leaves the carry-balance invariant
            // intact: every phi still resolves to tau.
            let analysis = analysis.unwrap();
            for (id, _) in tg.tasks() {
                assert_eq!(analysis.rates().phi(id), constraint.period());
            }
            // With the knob off, the same seed yields the same acyclic
            // graph plus nothing else — the corpus only *gains* the
            // back-edge.
            let (acyclic, _) = synthetic::random_dag(seed, &synthetic::DagSpec::default()).unwrap();
            assert_eq!(tg.buffer_count(), acyclic.buffer_count() + 1);
        }
    }

    #[test]
    fn fig1_pair_is_analysable() {
        let tg = fig1_pair();
        let constraint = ThroughputConstraint::on_sink(Rational::from(3u64)).unwrap();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        // Eq. (4): ρ(wa) + t·(π̂−1) + t·(γ̂−1) over t = 1, plus one — the
        // sink's own response time is excluded under the default
        // (Immediate) release convention.
        assert_eq!(analysis.capacities()[0].capacity, 6);
    }

    #[test]
    fn fork_join_case_study_mirrors_the_chain_rates() {
        let tg = mp3_fork_join();
        let analysis = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
        let caps: Vec<(String, u64)> = analysis
            .capacities()
            .iter()
            .map(|c| (c.name.clone(), c.capacity))
            .collect();
        // d1 is rate-identical to the MP3 chain's d1 and each channel
        // buffer to the chain's d2; the per-channel symmetry is exact.
        assert_eq!(
            caps,
            vec![
                ("d1".to_owned(), 6015),
                ("dL".to_owned(), 3263),
                ("dR".to_owned(), 3263),
                ("mL".to_owned(), 1366),
                ("mR".to_owned(), 1366),
                ("d3".to_owned(), 485),
            ]
        );
        // The demux must keep the 24 ms frame cadence; the converters the
        // 10 ms cadence of the chain's vSRC.
        let phi = |name: &str| analysis.rates().phi(tg.task_by_name(name).unwrap());
        assert_eq!(phi("vDemux"), Rational::new(24, 1000));
        assert_eq!(phi("vL"), Rational::new(10, 1000));
        assert_eq!(phi("vR"), Rational::new(10, 1000));
        assert_eq!(phi("vBR"), Rational::new(512, 10_000));
    }

    #[test]
    fn random_dags_are_feasible_and_deterministic() {
        let spec = synthetic::DagSpec::default();
        for seed in 0..100 {
            let (tg, constraint) = synthetic::random_dag(seed, &spec).unwrap();
            assert!(tg.condensed().is_ok(), "seed {seed} built an invalid DAG");
            let analysis = compute_buffer_capacities(&tg, constraint);
            assert!(
                analysis.is_ok(),
                "seed {seed} produced an infeasible DAG: {:?}",
                analysis.err()
            );
            // Every task's start-interval bound resolves to tau — the
            // generator's carry-balance invariant.
            let analysis = analysis.unwrap();
            for (id, _) in tg.tasks() {
                assert_eq!(analysis.rates().phi(id), constraint.period());
            }
        }
        let (a, _) = synthetic::random_dag(11, &spec).unwrap();
        let (b, _) = synthetic::random_dag(11, &spec).unwrap();
        assert_eq!(a.task_count(), b.task_count());
        for (id, buffer) in a.buffers() {
            assert_eq!(buffer.production(), b.buffer(id).production());
        }
    }

    #[test]
    fn fork_join_of_has_exact_shape() {
        let spec = synthetic::DagSpec::default();
        for (width, depth) in [(1, 1), (1, 4), (4, 1), (3, 5)] {
            let (tg, constraint) = synthetic::fork_join_of(9, width, depth, &spec).unwrap();
            assert_eq!(tg.task_count(), width * depth + 2);
            assert_eq!(tg.buffer_count(), width * (depth + 1));
            let dag = tg.condensed().unwrap();
            assert_eq!(dag.sources().len(), 1);
            assert_eq!(dag.sinks().len(), 1);
            assert!(compute_buffer_capacities(&tg, constraint).is_ok());
            // Width 1 degenerates to a plain chain: no task forks.
            let forks = tg.tasks().any(|(t, _)| tg.output_buffers(t).len() > 1);
            assert_eq!(forks, width > 1, "width {width}");
        }
    }

    #[test]
    fn random_chains_are_always_feasible() {
        let spec = synthetic::ChainSpec::default();
        for seed in 0..200 {
            let (tg, constraint) = synthetic::random_chain(seed, &spec).unwrap();
            let analysis = compute_buffer_capacities(&tg, constraint);
            assert!(
                analysis.is_ok(),
                "seed {seed} produced an infeasible chain: {:?}",
                analysis.err()
            );
        }
    }

    #[test]
    fn fixed_length_chains_have_exact_length_and_are_feasible() {
        let spec = synthetic::ChainSpec::default();
        for len in [2, 5, 16, 33] {
            let (tg, constraint) = synthetic::random_chain_of_length(9, len, &spec).unwrap();
            assert_eq!(tg.task_count(), len);
            assert!(compute_buffer_capacities(&tg, constraint).is_ok());
        }
    }

    #[test]
    fn default_spec_chains_analyse_at_256_tasks() {
        // Regression: the rate random-walk used to overflow i128 at
        // >= 128 tasks under the default spec (unbounded denominator
        // growth along the phi propagation); the generation-time ratio
        // bound keeps arbitrary lengths analysable.
        let spec = synthetic::ChainSpec::default();
        for len in [128, 256] {
            let (tg, constraint) = synthetic::random_chain_of_length(97, len, &spec).unwrap();
            assert_eq!(tg.task_count(), len);
            let analysis = compute_buffer_capacities(&tg, constraint);
            assert!(
                analysis.is_ok(),
                "len {len} failed to analyse: {:?}",
                analysis.err()
            );
        }
    }

    #[test]
    fn grid_generated_chains_are_feasible_on_a_bounded_clock() {
        // The generation-time grid: chains come out feasible *and* with a
        // bounded tick-clock LCM.
        let spec = synthetic::ChainSpec {
            rho_grid_subdivision: Some(1024),
            ..synthetic::ChainSpec::default()
        };
        for len in [8, 64] {
            let (tg, constraint) = synthetic::random_chain_of_length(42, len, &spec).unwrap();
            assert!(compute_buffer_capacities(&tg, constraint).is_ok());
            let grid_den = (constraint.period() / Rational::from(1024u64)).denom();
            let mut lcm: i128 = 1;
            for (_, task) in tg.tasks() {
                lcm = task.response_time().lcm_den(lcm).unwrap();
            }
            assert!(lcm <= grid_den, "len {len}: LCM {lcm} over {grid_den}");
        }
    }

    #[test]
    #[should_panic(expected = "rho_grid_subdivision")]
    fn zero_grid_subdivision_is_rejected_up_front() {
        let spec = synthetic::ChainSpec {
            rho_grid_subdivision: Some(0),
            ..synthetic::ChainSpec::default()
        };
        let _ = synthetic::random_chain_of_length(1, 4, &spec);
    }

    #[test]
    fn random_chain_is_deterministic_in_seed() {
        let spec = synthetic::ChainSpec::default();
        let (a, _) = synthetic::random_chain(11, &spec).unwrap();
        let (b, _) = synthetic::random_chain(11, &spec).unwrap();
        assert_eq!(a.task_count(), b.task_count());
        for (id, buffer) in a.buffers() {
            let other = b.buffer(id);
            assert_eq!(buffer.production(), other.production());
            assert_eq!(buffer.consumption(), other.consumption());
        }
    }
}
