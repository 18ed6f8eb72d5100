//! The task model `T = (W, B, ξ, λ, κ, ζ)` of Section 3.1.
//!
//! An application is a weakly connected directed graph of tasks `W`
//! communicating over circular buffers `B`.  Tasks *consume* full
//! containers from their input buffer and *produce* full containers on
//! their output buffer; a task only starts when enough full containers are
//! on its input **and** enough empty containers are on its output, so that
//! the execution finishes without blocking (back-pressure).
//!
//! * `ξ(b)` — the set of production quanta on buffer `b` (containers
//!   produced per execution, which equals the empty containers required).
//! * `λ(b)` — the set of consumption quanta.
//! * `κ(w)` — the worst-case response time of task `w` under its run-time
//!   arbiter (e.g. TDM or round-robin), independent of start rates.
//! * `ζ(b)` — the buffer capacity in containers; this is what the analysis
//!   computes.
//!
//! The topology is a weakly connected directed graph whose **forward**
//! edges form a DAG: tasks may fork (one producer, many consumers) and
//! join (many producers, one consumer), and cycles are permitted when
//! they are closed by declared **feedback** edges carrying initial
//! tokens ([`TaskGraph::connect_feedback`]) — the condensation of the
//! graph onto its forward edges is validated by [`TaskGraph::condensed`].
//! The throughput constraint sits on a task without forward outputs
//! (sink) or without forward inputs (source).  Section 3.1's **chain**
//! restriction — every task with at most one input and one output buffer
//! — survives as the validated special case [`TaskGraph::chain`] /
//! [`ChainView`].

use std::fmt;

use crate::error::AnalysisError;
use crate::quantum::QuantumSet;
use crate::rational::Rational;

/// Opaque handle to a task inside a [`TaskGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) usize);

/// Opaque handle to a buffer inside a [`TaskGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub(crate) usize);

impl TaskId {
    /// Position of the task in insertion order.
    #[inline]
    pub fn index(&self) -> usize {
        self.0
    }
}

impl BufferId {
    /// Position of the buffer in insertion order.
    #[inline]
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A task `w ∈ W` with its worst-case response time `κ(w)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Task {
    name: String,
    response_time: Rational,
}

impl Task {
    /// The task's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Worst-case response time `κ(w)` — the maximum time between
    /// sufficient containers being present and the execution finishing.
    #[inline]
    pub fn response_time(&self) -> Rational {
        self.response_time
    }
}

/// A circular buffer `b_ab ∈ B` from a producing task to a consuming task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Buffer {
    name: String,
    producer: TaskId,
    consumer: TaskId,
    production: QuantumSet,
    consumption: QuantumSet,
    capacity: Option<u64>,
    initial_tokens: u64,
    feedback: bool,
}

impl Buffer {
    /// The buffer's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The producing task `w_a`.
    #[inline]
    pub fn producer(&self) -> TaskId {
        self.producer
    }

    /// The consuming task `w_b`.
    #[inline]
    pub fn consumer(&self) -> TaskId {
        self.consumer
    }

    /// Production quanta `ξ(b)`: containers produced per execution of the
    /// producer (also the number of empty containers it requires to start).
    #[inline]
    pub fn production(&self) -> &QuantumSet {
        &self.production
    }

    /// Consumption quanta `λ(b)`: containers consumed per execution of the
    /// consumer.
    #[inline]
    pub fn consumption(&self) -> &QuantumSet {
        &self.consumption
    }

    /// Capacity `ζ(b)` in containers, if it has been set or computed.
    #[inline]
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// Initial tokens `δ0(b)`: full containers present before the first
    /// firing.  Zero for buffers created by [`TaskGraph::connect`];
    /// strictly positive on feedback edges, where the initial tokens are
    /// what lets the cycle start turning.
    #[inline]
    pub fn initial_tokens(&self) -> u64 {
        self.initial_tokens
    }

    /// Whether this buffer is a declared feedback (back) edge
    /// ([`TaskGraph::connect_feedback`]).  Feedback edges are excluded
    /// from the topological order of the forward core but participate in
    /// rate derivation, capacity sizing, and simulation like any other
    /// buffer.
    #[inline]
    pub fn is_feedback(&self) -> bool {
        self.feedback
    }
}

/// The task graph `T = (W, B, ξ, λ, κ, ζ)`.
///
/// # Examples
///
/// Build the motivating example of Fig. 1: `wa` produces 3 containers per
/// execution, `wb` consumes 2 or 3.
///
/// ```
/// use vrdf_core::{QuantumSet, Rational, TaskGraph};
///
/// let mut tg = TaskGraph::new();
/// let wa = tg.add_task("wa", Rational::new(1, 10))?;
/// let wb = tg.add_task("wb", Rational::new(1, 10))?;
/// tg.connect("b_ab", wa, wb, QuantumSet::constant(3), QuantumSet::new([2, 3])?)?;
/// let chain = tg.chain()?;
/// assert_eq!(chain.len(), 2);
/// # Ok::<(), vrdf_core::AnalysisError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    buffers: Vec<Buffer>,
    /// `outputs[t]` / `inputs[t]`: buffers adjacent to task `t`.
    outputs: Vec<Vec<BufferId>>,
    inputs: Vec<Vec<BufferId>>,
}

impl TaskGraph {
    /// Creates an empty task graph.
    pub fn new() -> TaskGraph {
        TaskGraph::default()
    }

    /// Adds a task with worst-case response time `response_time` (`κ`).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::DuplicateName`] when the name is taken and
    /// [`AnalysisError::NegativeResponseTime`] when `response_time < 0`.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        response_time: Rational,
    ) -> Result<TaskId, AnalysisError> {
        let name = name.into();
        if self.tasks.iter().any(|t| t.name == name) {
            return Err(AnalysisError::DuplicateName(name));
        }
        if response_time.is_negative() {
            return Err(AnalysisError::NegativeResponseTime {
                name,
                value: response_time,
            });
        }
        let id = TaskId(self.tasks.len());
        self.tasks.push(Task {
            name,
            response_time,
        });
        self.outputs.push(Vec::new());
        self.inputs.push(Vec::new());
        Ok(id)
    }

    /// Connects `producer` to `consumer` with a new buffer.
    ///
    /// `production` is `ξ(b)` and `consumption` is `λ(b)`.  The buffer is
    /// initially empty, as the paper requires, and its capacity `ζ(b)` is
    /// unset until computed or assigned.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::DuplicateName`] for a reused buffer name
    /// and [`AnalysisError::UnknownName`] for task handles that do not
    /// belong to this graph.
    pub fn connect(
        &mut self,
        name: impl Into<String>,
        producer: TaskId,
        consumer: TaskId,
        production: QuantumSet,
        consumption: QuantumSet,
    ) -> Result<BufferId, AnalysisError> {
        self.push_buffer(
            name.into(),
            producer,
            consumer,
            production,
            consumption,
            0,
            false,
        )
    }

    /// Connects `producer` to `consumer` with a **feedback** buffer
    /// pre-filled with `initial_tokens` full containers.
    ///
    /// A feedback edge closes a cycle over the forward core: it is left
    /// out of the topological order ([`TaskGraph::condensed`]) but takes
    /// part in rate derivation (its rate constraint joins the binding
    /// minimum like any join input), capacity sizing (Eq. (4) plus the
    /// initial-token footprint), and simulation (the buffer starts with
    /// `initial_tokens` full containers instead of empty).
    ///
    /// `initial_tokens` must be strictly positive, otherwise no firing on
    /// the cycle could ever become enabled — [`TaskGraph::condensed`]
    /// rejects a zero-token feedback edge with
    /// [`AnalysisError::UnbrokenCycle`] naming the cycle.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::DuplicateName`] for a reused buffer name
    /// and [`AnalysisError::UnknownName`] for task handles that do not
    /// belong to this graph.
    pub fn connect_feedback(
        &mut self,
        name: impl Into<String>,
        producer: TaskId,
        consumer: TaskId,
        production: QuantumSet,
        consumption: QuantumSet,
        initial_tokens: u64,
    ) -> Result<BufferId, AnalysisError> {
        self.push_buffer(
            name.into(),
            producer,
            consumer,
            production,
            consumption,
            initial_tokens,
            true,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn push_buffer(
        &mut self,
        name: String,
        producer: TaskId,
        consumer: TaskId,
        production: QuantumSet,
        consumption: QuantumSet,
        initial_tokens: u64,
        feedback: bool,
    ) -> Result<BufferId, AnalysisError> {
        if self.buffers.iter().any(|b| b.name == name) {
            return Err(AnalysisError::DuplicateName(name));
        }
        for id in [producer, consumer] {
            if id.0 >= self.tasks.len() {
                return Err(AnalysisError::UnknownName(format!("{id}")));
            }
        }
        let id = BufferId(self.buffers.len());
        self.buffers.push(Buffer {
            name,
            producer,
            consumer,
            production,
            consumption,
            capacity: None,
            initial_tokens,
            feedback,
        });
        self.outputs[producer.0].push(id);
        self.inputs[consumer.0].push(id);
        Ok(id)
    }

    /// Sets buffer capacity `ζ(b)` in containers.
    ///
    /// # Panics
    ///
    /// Panics if `buffer` does not belong to this graph.
    pub fn set_capacity(&mut self, buffer: BufferId, capacity: u64) {
        self.buffers[buffer.0].capacity = Some(capacity);
    }

    /// Number of tasks.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of buffers.
    #[inline]
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// The task behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[inline]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// The buffer behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[inline]
    pub fn buffer(&self, id: BufferId) -> &Buffer {
        &self.buffers[id.0]
    }

    /// Looks a task up by name.
    pub fn task_by_name(&self, name: &str) -> Option<TaskId> {
        self.tasks.iter().position(|t| t.name == name).map(TaskId)
    }

    /// Looks a buffer up by name.
    pub fn buffer_by_name(&self, name: &str) -> Option<BufferId> {
        self.buffers
            .iter()
            .position(|b| b.name == name)
            .map(BufferId)
    }

    /// Iterates over all tasks with their handles.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// Iterates over all buffers with their handles.
    pub fn buffers(&self) -> impl Iterator<Item = (BufferId, &Buffer)> {
        self.buffers
            .iter()
            .enumerate()
            .map(|(i, b)| (BufferId(i), b))
    }

    /// Output buffers of a task, in connection order (at most one in a
    /// valid chain).
    pub fn output_buffers(&self, task: TaskId) -> &[BufferId] {
        &self.outputs[task.0]
    }

    /// Input buffers of a task, in connection order (at most one in a
    /// valid chain).
    pub fn input_buffers(&self, task: TaskId) -> &[BufferId] {
        &self.inputs[task.0]
    }

    /// Validates the general (possibly cyclic) topology and returns a
    /// [`CondensedView`]: the **forward** edges must form a DAG, every
    /// cycle must be closed by a declared feedback edge
    /// ([`TaskGraph::connect_feedback`]) carrying initial tokens.  Tasks
    /// come out in a deterministic topological order of the forward core
    /// (ties break by insertion order) and buffers ordered by their
    /// producer's topological position (connection order within one
    /// producer) — source-to-sink chain order when the graph is a chain.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::EmptyGraph`] — no tasks.
    /// * [`AnalysisError::NotADag`] — a directed cycle among the forward
    ///   edges (the detail names the cycle as a task path), or an orphan
    ///   task with no buffers at all in a multi-task graph.
    /// * [`AnalysisError::UnbrokenCycle`] — a feedback edge carrying no
    ///   initial tokens, named as the cycle path it fails to break.
    /// * [`AnalysisError::Disconnected`] — more than one weakly connected
    ///   component (feedback edges count towards connectivity).
    pub fn condensed(&self) -> Result<CondensedView, AnalysisError> {
        if self.tasks.is_empty() {
            return Err(AnalysisError::EmptyGraph);
        }
        if self.tasks.len() > 1 {
            for (id, task) in self.tasks() {
                if self.inputs[id.0].is_empty() && self.outputs[id.0].is_empty() {
                    return Err(AnalysisError::NotADag {
                        task: task.name.clone(),
                        detail: "orphan task with no input or output buffers".into(),
                    });
                }
            }
        }
        // Weak connectivity: undirected flood fill from task 0, over all
        // edges — a component held on only by its feedback edge is still
        // connected.
        let mut seen = vec![false; self.tasks.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(t) = stack.pop() {
            for &b in self.outputs[t].iter().chain(&self.inputs[t]) {
                let buffer = &self.buffers[b.0];
                for next in [buffer.producer.0, buffer.consumer.0] {
                    if !seen[next] {
                        seen[next] = true;
                        stack.push(next);
                    }
                }
            }
        }
        if seen.iter().any(|s| !s) {
            return Err(AnalysisError::Disconnected);
        }
        // Kahn's algorithm over the forward edges only, with a sorted
        // ready set: deterministic topological order, insertion order
        // breaking ties.  On a valid chain this reproduces the
        // source-to-sink chain order exactly.
        let mut indegree: Vec<usize> = (0..self.tasks.len())
            .map(|t| {
                self.inputs[t]
                    .iter()
                    .filter(|b| !self.buffers[b.0].feedback)
                    .count()
            })
            .collect();
        let mut ready: Vec<usize> = (0..self.tasks.len())
            .filter(|&t| indegree[t] == 0)
            .collect();
        // Popping from the back of a descending-sorted vec yields the
        // smallest index first.
        ready.sort_unstable_by(|a, b| b.cmp(a));
        let mut topo = Vec::with_capacity(self.tasks.len());
        while let Some(t) = ready.pop() {
            topo.push(TaskId(t));
            for &b in &self.outputs[t] {
                if self.buffers[b.0].feedback {
                    continue;
                }
                let consumer = self.buffers[b.0].consumer.0;
                indegree[consumer] -= 1;
                if indegree[consumer] == 0 {
                    // `consumer` just reached indegree 0, so it
                    // cannot already sit in `ready`: Err is guaranteed.
                    #[allow(clippy::unwrap_used)]
                    let at = ready
                        .binary_search_by(|probe| consumer.cmp(probe))
                        .unwrap_err();
                    ready.insert(at, consumer);
                }
            }
        }
        if topo.len() != self.tasks.len() {
            // An incomplete topological order leaves at least one task
            // with pending forward inputs.
            #[allow(clippy::expect_used)]
            let stuck = (0..self.tasks.len())
                .find(|&t| indegree[t] > 0)
                .expect("an unvisited task has pending inputs");
            let cycle = self.forward_cycle_through(stuck, &indegree);
            return Err(AnalysisError::NotADag {
                task: self.tasks[stuck].name.clone(),
                detail: format!(
                    "the graph contains a directed cycle `{}`; close it with a \
                     feedback edge carrying initial tokens (`connect_feedback`)",
                    cycle.join(" -> ")
                ),
            });
        }
        // Every feedback edge must carry initial tokens, or no firing on
        // the cycle it closes can ever become enabled.
        let feedback: Vec<BufferId> = self
            .buffers()
            .filter(|(_, b)| b.feedback)
            .map(|(id, _)| id)
            .collect();
        for &fb in &feedback {
            let buffer = &self.buffers[fb.0];
            if buffer.initial_tokens == 0 {
                return Err(AnalysisError::UnbrokenCycle {
                    cycle: self.feedback_cycle_path(buffer),
                    detail: format!(
                        "feedback buffer `{}` carries no initial tokens",
                        buffer.name
                    ),
                });
            }
        }
        // Sources and sinks of the forward core: a task whose only
        // inputs (outputs) are feedback edges is still a source (sink).
        let sources = topo
            .iter()
            .copied()
            .filter(|t| self.inputs[t.0].iter().all(|b| self.buffers[b.0].feedback))
            .collect();
        let sinks = topo
            .iter()
            .copied()
            .filter(|t| self.outputs[t.0].iter().all(|b| self.buffers[b.0].feedback))
            .collect();
        // Buffers — feedback edges included — follow their producer's
        // topological position (then connection order), so on a chain the
        // view reproduces the source-to-sink buffer order of
        // [`TaskGraph::chain`] no matter the insertion order — the DAG
        // and chain analysis paths stay positionally interchangeable on
        // linear graphs, and acyclic graphs order exactly as before.
        let buffers = topo
            .iter()
            .flat_map(|t| self.outputs[t.0].iter().copied())
            .collect();
        Ok(CondensedView {
            topo,
            buffers,
            sources,
            sinks,
            feedback,
        })
    }

    /// A directed cycle among the forward edges, passing through stuck
    /// tasks only, as a closed task-name walk (the last entry repeats
    /// the first).  `indegree[t] > 0` identifies the tasks Kahn's
    /// algorithm could not clear; every such task has at least one
    /// forward predecessor that is itself stuck (a cleared producer
    /// would have decremented the count), so walking predecessors must
    /// revisit a task and close a cycle.
    fn forward_cycle_through(&self, stuck: usize, indegree: &[usize]) -> Vec<String> {
        let mut path = vec![stuck];
        loop {
            #[allow(clippy::expect_used)]
            let cur = *path.last().expect("path starts non-empty");
            #[allow(clippy::expect_used)]
            let prev = self.inputs[cur]
                .iter()
                .filter(|b| !self.buffers[b.0].feedback)
                .map(|b| self.buffers[b.0].producer.0)
                .find(|&p| indegree[p] > 0)
                .expect("a stuck task has a stuck forward predecessor");
            if let Some(pos) = path.iter().position(|&t| t == prev) {
                // `path[pos..]` walks the cycle backwards; reverse it to
                // read along edge direction and close onto the start.
                let mut cycle: Vec<String> = path[pos..]
                    .iter()
                    .rev()
                    .map(|&t| self.tasks[t].name.clone())
                    .collect();
                cycle.insert(0, self.tasks[prev].name.clone());
                return cycle;
            }
            path.push(prev);
        }
    }

    /// The cycle a feedback buffer closes, as a task-name walk starting
    /// at the buffer's producer, crossing the feedback edge to its
    /// consumer, and returning to the producer along the shortest
    /// forward path (closing the walk).  When the feedback edge closes
    /// no cycle the walk is just `[producer, consumer]`.
    pub(crate) fn feedback_cycle_path(&self, buffer: &Buffer) -> Vec<String> {
        let start = buffer.consumer.0;
        let goal = buffer.producer.0;
        let mut names = vec![self.tasks[goal].name.clone()];
        if start == goal {
            // Self-loop: the feedback edge alone is the cycle.
            names.push(self.tasks[start].name.clone());
            return names;
        }
        // Deterministic BFS over forward edges, consumer to producer.
        let mut parent: Vec<Option<usize>> = vec![None; self.tasks.len()];
        parent[start] = Some(start);
        let mut frontier = vec![start];
        'bfs: while !frontier.is_empty() {
            let mut next = Vec::new();
            for &t in &frontier {
                for &b in &self.outputs[t] {
                    let edge = &self.buffers[b.0];
                    if edge.feedback || parent[edge.consumer.0].is_some() {
                        continue;
                    }
                    parent[edge.consumer.0] = Some(t);
                    if edge.consumer.0 == goal {
                        break 'bfs;
                    }
                    next.push(edge.consumer.0);
                }
            }
            frontier = next;
        }
        if parent[goal].is_none() {
            // No forward return path: the "cycle" degenerates to the
            // feedback edge itself.
            names.push(self.tasks[start].name.clone());
            return names;
        }
        let mut back = vec![goal];
        let mut cur = goal;
        while cur != start {
            #[allow(clippy::expect_used)]
            let p = parent[cur].expect("every task on a BFS path has a parent");
            back.push(p);
            cur = p;
        }
        names.extend(back.iter().rev().map(|&t| self.tasks[t].name.clone()));
        names
    }

    /// Validates the chain topology of Section 3.1 and returns the tasks
    /// and buffers in source-to-sink order.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::EmptyGraph`] — no tasks.
    /// * [`AnalysisError::NotAChain`] — a task with two or more inputs or
    ///   outputs, or a cycle.
    /// * [`AnalysisError::Disconnected`] — more than one weakly connected
    ///   component.
    pub fn chain(&self) -> Result<ChainView, AnalysisError> {
        if self.tasks.is_empty() {
            return Err(AnalysisError::EmptyGraph);
        }
        if let Some(b) = self.buffers.iter().find(|b| b.feedback) {
            return Err(AnalysisError::NotAChain {
                task: self.tasks[b.producer.0].name.clone(),
                detail: format!(
                    "feedback buffer `{}` closes a cycle; chains are acyclic \
                     (use `condensed()`)",
                    b.name
                ),
            });
        }
        for (id, task) in self.tasks() {
            if self.outputs[id.0].len() > 1 {
                return Err(AnalysisError::NotAChain {
                    task: task.name.clone(),
                    detail: format!("{} output buffers", self.outputs[id.0].len()),
                });
            }
            if self.inputs[id.0].len() > 1 {
                return Err(AnalysisError::NotAChain {
                    task: task.name.clone(),
                    detail: format!("{} input buffers", self.inputs[id.0].len()),
                });
            }
        }
        // Exactly one source in a chain (a cycle of in/out degree one has
        // none).
        let sources: Vec<TaskId> = self
            .tasks()
            .map(|(id, _)| id)
            .filter(|id| self.inputs[id.0].is_empty())
            .collect();
        let first = match sources.as_slice() {
            [] => {
                return Err(AnalysisError::NotAChain {
                    task: self.tasks[0].name.clone(),
                    detail: "the graph contains a cycle".into(),
                })
            }
            [one] => *one,
            _ => return Err(AnalysisError::Disconnected),
        };
        // Walk the chain from the source.
        let mut order = vec![first];
        let mut buffers = Vec::new();
        let mut current = first;
        while let Some(&out) = self.outputs[current.0].first() {
            buffers.push(out);
            current = self.buffers[out.0].consumer;
            order.push(current);
        }
        if order.len() != self.tasks.len() {
            // The walk did not reach every task: disconnected components.
            return Err(AnalysisError::Disconnected);
        }
        Ok(ChainView {
            tasks: order,
            buffers,
        })
    }

    /// Convenience builder for a linear chain: `tasks[i]` is connected to
    /// `tasks[i+1]` by `buffers[i]`.
    ///
    /// `tasks` are `(name, response_time)` pairs; `buffers` are
    /// `(name, production ξ, consumption λ)` triples and must number one
    /// fewer than the tasks.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`TaskGraph::add_task`] and
    /// [`TaskGraph::connect`]; returns [`AnalysisError::NotAChain`] when
    /// the buffer count does not match.
    ///
    /// # Examples
    ///
    /// ```
    /// use vrdf_core::{QuantumSet, Rational, TaskGraph};
    ///
    /// let tg = TaskGraph::linear_chain(
    ///     [("src", Rational::new(1, 10)), ("snk", Rational::new(1, 20))],
    ///     [("b0", QuantumSet::constant(3), QuantumSet::new([2, 3])?)],
    /// )?;
    /// assert_eq!(tg.task_count(), 2);
    /// # Ok::<(), vrdf_core::AnalysisError>(())
    /// ```
    pub fn linear_chain<'a, T, B>(tasks: T, buffers: B) -> Result<TaskGraph, AnalysisError>
    where
        T: IntoIterator<Item = (&'a str, Rational)>,
        B: IntoIterator<Item = (&'a str, QuantumSet, QuantumSet)>,
    {
        let mut tg = TaskGraph::new();
        let ids: Vec<TaskId> = tasks
            .into_iter()
            .map(|(name, rho)| tg.add_task(name, rho))
            .collect::<Result<_, _>>()?;
        let mut count = 0usize;
        for (i, (name, production, consumption)) in buffers.into_iter().enumerate() {
            if i + 1 >= ids.len() {
                let last = ids.last().map_or("<empty chain>".to_owned(), |&id| {
                    tg.task(id).name().to_owned()
                });
                return Err(AnalysisError::NotAChain {
                    task: last,
                    detail: format!(
                        "buffer `{name}` has no downstream task to connect \
                         ({} tasks leave {} gaps)",
                        ids.len(),
                        ids.len().saturating_sub(1)
                    ),
                });
            }
            tg.connect(name, ids[i], ids[i + 1], production, consumption)?;
            count += 1;
        }
        if count + 1 != ids.len() {
            let unreachable = tg.task(ids[count + 1]).name().to_owned();
            return Err(AnalysisError::NotAChain {
                task: unreachable,
                detail: format!(
                    "task is unreachable: {} tasks need {} buffers, got {count}",
                    ids.len(),
                    ids.len() - 1
                ),
            });
        }
        Ok(tg)
    }
}

/// A validated chain: tasks ordered from source to sink, with
/// `buffers[i]` connecting `tasks[i]` to `tasks[i+1]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainView {
    tasks: Vec<TaskId>,
    buffers: Vec<BufferId>,
}

impl ChainView {
    /// Tasks in source-to-sink order.
    #[inline]
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks
    }

    /// Buffers in source-to-sink order; `buffers()[i]` connects
    /// `tasks()[i]` to `tasks()[i+1]`.
    #[inline]
    pub fn buffers(&self) -> &[BufferId] {
        &self.buffers
    }

    /// Number of tasks in the chain.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the chain is empty (never true for a validated chain).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The source task (no input buffers).
    #[inline]
    pub fn source(&self) -> TaskId {
        self.tasks[0]
    }

    /// The sink task (no output buffers).
    #[inline]
    pub fn sink(&self) -> TaskId {
        // `chain()` rejects empty graphs before building a view.
        #[allow(clippy::expect_used)]
        *self.tasks.last().expect("chains are non-empty")
    }

    /// The chain as a [`CondensedView`]: tasks in chain order (which is
    /// a topological order) and buffers in chain order.  A chain is the
    /// degenerate fork/join graph with all degrees at most one and no
    /// feedback edges, so this is a plain relabelling — no re-validation.
    pub fn to_condensed(&self) -> CondensedView {
        CondensedView {
            topo: self.tasks.clone(),
            buffers: self.buffers.clone(),
            sources: vec![self.source()],
            sinks: vec![self.sink()],
            feedback: Vec::new(),
        }
    }
}

/// A validated task graph condensed onto its forward core: tasks in
/// topological order of the forward edges, buffers (feedback edges
/// included) ordered by their producer's topological position, the
/// declared feedback edges, and the endpoint (source/sink) sets the
/// throughput constraint can attach to.
///
/// Produced by [`TaskGraph::condensed`] or [`ChainView::to_condensed`];
/// on a chain both order the buffers source to sink.  On an acyclic
/// graph the view has no feedback edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CondensedView {
    topo: Vec<TaskId>,
    buffers: Vec<BufferId>,
    sources: Vec<TaskId>,
    sinks: Vec<TaskId>,
    feedback: Vec<BufferId>,
}

impl CondensedView {
    /// Tasks in topological order of the forward core: every forward
    /// buffer's producer appears before its consumer (feedback edges are
    /// exempt — that is what makes them back-edges).
    #[inline]
    pub fn tasks(&self) -> &[TaskId] {
        &self.topo
    }

    /// All buffers of the graph — feedback edges included — in the
    /// view's deterministic order.
    #[inline]
    pub fn buffers(&self) -> &[BufferId] {
        &self.buffers
    }

    /// The declared feedback edges, in insertion order.  Empty exactly
    /// when the graph is acyclic.
    #[inline]
    pub fn feedback_buffers(&self) -> &[BufferId] {
        &self.feedback
    }

    /// Number of tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.topo.len()
    }

    /// Whether the view is empty (never true for a validated view).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.topo.is_empty()
    }

    /// Tasks without forward input buffers, in topological order.
    #[inline]
    pub fn sources(&self) -> &[TaskId] {
        &self.sources
    }

    /// Tasks without forward output buffers, in topological order.
    #[inline]
    pub fn sinks(&self) -> &[TaskId] {
        &self.sinks
    }

    /// The unique source, or [`AnalysisError::AmbiguousEndpoint`] when
    /// the forward core has several — required by source-constrained
    /// analysis.
    pub fn unique_source(&self, tg: &TaskGraph) -> Result<TaskId, AnalysisError> {
        Self::unique(&self.sources, "source", tg)
    }

    /// The unique sink, or [`AnalysisError::AmbiguousEndpoint`] when the
    /// forward core has several — required by sink-constrained analysis.
    pub fn unique_sink(&self, tg: &TaskGraph) -> Result<TaskId, AnalysisError> {
        Self::unique(&self.sinks, "sink", tg)
    }

    fn unique(
        endpoints: &[TaskId],
        role: &'static str,
        tg: &TaskGraph,
    ) -> Result<TaskId, AnalysisError> {
        match endpoints {
            [one] => Ok(*one),
            _ => Err(AnalysisError::AmbiguousEndpoint {
                role,
                tasks: endpoints
                    .iter()
                    .map(|&t| tg.task(t).name().to_owned())
                    .collect(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    fn q(values: &[u64]) -> QuantumSet {
        QuantumSet::new(values.iter().copied()).unwrap()
    }

    fn two_task_graph() -> TaskGraph {
        let mut tg = TaskGraph::new();
        let a = tg.add_task("wa", rat(1, 10)).unwrap();
        let b = tg.add_task("wb", rat(1, 10)).unwrap();
        tg.connect("b_ab", a, b, q(&[3]), q(&[2, 3])).unwrap();
        tg
    }

    #[test]
    fn build_and_query() {
        let tg = two_task_graph();
        assert_eq!(tg.task_count(), 2);
        assert_eq!(tg.buffer_count(), 1);
        let a = tg.task_by_name("wa").unwrap();
        let b = tg.task_by_name("wb").unwrap();
        let buf = tg.buffer_by_name("b_ab").unwrap();
        assert_eq!(tg.buffer(buf).producer(), a);
        assert_eq!(tg.buffer(buf).consumer(), b);
        assert_eq!(tg.buffer(buf).production().max(), 3);
        assert_eq!(tg.buffer(buf).consumption().min(), 2);
        assert_eq!(tg.buffer(buf).capacity(), None);
        assert_eq!(tg.task(a).name(), "wa");
        assert_eq!(tg.task(a).response_time(), rat(1, 10));
        assert_eq!(tg.output_buffers(a), &[buf]);
        assert_eq!(tg.input_buffers(b), &[buf]);
        assert!(tg.task_by_name("nope").is_none());
        assert!(tg.buffer_by_name("nope").is_none());
    }

    #[test]
    fn set_capacity() {
        let mut tg = two_task_graph();
        let buf = tg.buffer_by_name("b_ab").unwrap();
        tg.set_capacity(buf, 4);
        assert_eq!(tg.buffer(buf).capacity(), Some(4));
    }

    #[test]
    fn duplicate_task_name_rejected() {
        let mut tg = TaskGraph::new();
        tg.add_task("w", rat(1, 1)).unwrap();
        assert!(matches!(
            tg.add_task("w", rat(1, 1)),
            Err(AnalysisError::DuplicateName(_))
        ));
    }

    #[test]
    fn duplicate_buffer_name_rejected() {
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        let b = tg.add_task("b", rat(1, 1)).unwrap();
        let c = tg.add_task("c", rat(1, 1)).unwrap();
        tg.connect("buf", a, b, q(&[1]), q(&[1])).unwrap();
        assert!(matches!(
            tg.connect("buf", b, c, q(&[1]), q(&[1])),
            Err(AnalysisError::DuplicateName(_))
        ));
    }

    #[test]
    fn negative_response_time_rejected() {
        let mut tg = TaskGraph::new();
        assert!(matches!(
            tg.add_task("w", rat(-1, 2)),
            Err(AnalysisError::NegativeResponseTime { .. })
        ));
    }

    #[test]
    fn chain_order() {
        let tg = TaskGraph::linear_chain(
            [("t0", rat(1, 1)), ("t1", rat(1, 1)), ("t2", rat(1, 1))],
            [("b0", q(&[2]), q(&[3])), ("b1", q(&[1]), q(&[4]))],
        )
        .unwrap();
        let chain = tg.chain().unwrap();
        assert_eq!(chain.len(), 3);
        assert!(!chain.is_empty());
        assert_eq!(chain.source(), tg.task_by_name("t0").unwrap());
        assert_eq!(chain.sink(), tg.task_by_name("t2").unwrap());
        assert_eq!(chain.buffers().len(), 2);
        assert_eq!(
            tg.buffer(chain.buffers()[0]).producer(),
            tg.task_by_name("t0").unwrap()
        );
    }

    #[test]
    fn empty_graph_rejected() {
        let tg = TaskGraph::new();
        assert!(matches!(tg.chain(), Err(AnalysisError::EmptyGraph)));
    }

    #[test]
    fn single_task_is_a_chain() {
        let mut tg = TaskGraph::new();
        tg.add_task("only", rat(1, 1)).unwrap();
        let chain = tg.chain().unwrap();
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.source(), chain.sink());
        assert!(chain.buffers().is_empty());
    }

    #[test]
    fn fork_rejected() {
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        let b = tg.add_task("b", rat(1, 1)).unwrap();
        let c = tg.add_task("c", rat(1, 1)).unwrap();
        tg.connect("ab", a, b, q(&[1]), q(&[1])).unwrap();
        tg.connect("ac", a, c, q(&[1]), q(&[1])).unwrap();
        assert!(matches!(tg.chain(), Err(AnalysisError::NotAChain { .. })));
    }

    #[test]
    fn join_rejected() {
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        let b = tg.add_task("b", rat(1, 1)).unwrap();
        let c = tg.add_task("c", rat(1, 1)).unwrap();
        tg.connect("ac", a, c, q(&[1]), q(&[1])).unwrap();
        tg.connect("bc", b, c, q(&[1]), q(&[1])).unwrap();
        assert!(matches!(tg.chain(), Err(AnalysisError::NotAChain { .. })));
    }

    #[test]
    fn cycle_rejected() {
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        let b = tg.add_task("b", rat(1, 1)).unwrap();
        tg.connect("ab", a, b, q(&[1]), q(&[1])).unwrap();
        tg.connect("ba", b, a, q(&[1]), q(&[1])).unwrap();
        assert!(matches!(tg.chain(), Err(AnalysisError::NotAChain { .. })));
    }

    #[test]
    fn disconnected_rejected() {
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        let b = tg.add_task("b", rat(1, 1)).unwrap();
        tg.add_task("lonely", rat(1, 1)).unwrap();
        tg.connect("ab", a, b, q(&[1]), q(&[1])).unwrap();
        assert!(matches!(tg.chain(), Err(AnalysisError::Disconnected)));
    }

    #[test]
    fn unknown_task_handle_rejected() {
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        let ghost = TaskId(42);
        assert!(matches!(
            tg.connect("x", a, ghost, q(&[1]), q(&[1])),
            Err(AnalysisError::UnknownName(_))
        ));
    }

    #[test]
    fn linear_chain_count_mismatch_names_the_offender() {
        // Too few buffers: the first unreachable task is named.
        let r = TaskGraph::linear_chain(
            [("a", rat(1, 1)), ("b", rat(1, 1)), ("c", rat(1, 1))],
            [("b0", q(&[1]), q(&[1]))],
        );
        match r {
            Err(AnalysisError::NotAChain { task, detail }) => {
                assert_eq!(task, "c");
                assert!(detail.contains("unreachable"), "{detail}");
            }
            other => panic!("expected NotAChain, got {other:?}"),
        }
        // Too many buffers: the dangling buffer and the last task are
        // named.
        let r = TaskGraph::linear_chain(
            [("a", rat(1, 1)), ("b", rat(1, 1))],
            [("b0", q(&[1]), q(&[1])), ("b1", q(&[1]), q(&[1]))],
        );
        match r {
            Err(AnalysisError::NotAChain { task, detail }) => {
                assert_eq!(task, "b");
                assert!(detail.contains("`b1`"), "{detail}");
            }
            other => panic!("expected NotAChain, got {other:?}"),
        }
    }

    /// A diamond: a forks to b and c, which join into d.
    fn diamond() -> TaskGraph {
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        let b = tg.add_task("b", rat(1, 1)).unwrap();
        let c = tg.add_task("c", rat(1, 1)).unwrap();
        let d = tg.add_task("d", rat(1, 1)).unwrap();
        tg.connect("ab", a, b, q(&[1]), q(&[1])).unwrap();
        tg.connect("ac", a, c, q(&[1]), q(&[1])).unwrap();
        tg.connect("bd", b, d, q(&[1]), q(&[1])).unwrap();
        tg.connect("cd", c, d, q(&[1]), q(&[1])).unwrap();
        tg
    }

    #[test]
    fn dag_accepts_fork_join_in_topological_order() {
        let tg = diamond();
        assert!(matches!(tg.chain(), Err(AnalysisError::NotAChain { .. })));
        let dag = tg.condensed().unwrap();
        assert_eq!(dag.len(), 4);
        assert!(!dag.is_empty());
        // Topological: a before b/c, b/c before d; ties by insertion.
        let names: Vec<&str> = dag.tasks().iter().map(|&t| tg.task(t).name()).collect();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
        assert_eq!(dag.buffers().len(), 4);
        assert_eq!(dag.sources(), &[tg.task_by_name("a").unwrap()]);
        assert_eq!(dag.sinks(), &[tg.task_by_name("d").unwrap()]);
        assert_eq!(
            dag.unique_source(&tg).unwrap(),
            tg.task_by_name("a").unwrap()
        );
        assert_eq!(dag.unique_sink(&tg).unwrap(), tg.task_by_name("d").unwrap());
    }

    #[test]
    fn dag_topological_order_is_insertion_stable() {
        // The same diamond built with the middle tasks inserted in the
        // opposite order: topological ties must follow insertion order.
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        let c = tg.add_task("c", rat(1, 1)).unwrap();
        let b = tg.add_task("b", rat(1, 1)).unwrap();
        let d = tg.add_task("d", rat(1, 1)).unwrap();
        tg.connect("ab", a, b, q(&[1]), q(&[1])).unwrap();
        tg.connect("ac", a, c, q(&[1]), q(&[1])).unwrap();
        tg.connect("bd", b, d, q(&[1]), q(&[1])).unwrap();
        tg.connect("cd", c, d, q(&[1]), q(&[1])).unwrap();
        let names: Vec<&str> = tg
            .condensed()
            .unwrap()
            .tasks()
            .iter()
            .map(|&t| tg.task(t).name())
            .collect();
        assert_eq!(names, vec!["a", "c", "b", "d"]);
    }

    #[test]
    fn dag_rejects_cycles_orphans_and_disconnection() {
        // Cycle.
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        let b = tg.add_task("b", rat(1, 1)).unwrap();
        tg.connect("ab", a, b, q(&[1]), q(&[1])).unwrap();
        tg.connect("ba", b, a, q(&[1]), q(&[1])).unwrap();
        match tg.condensed() {
            Err(AnalysisError::NotADag { detail, .. }) => {
                assert!(detail.contains("cycle"), "{detail}");
                assert!(detail.contains("a -> b -> a"), "{detail}");
            }
            other => panic!("expected NotADag, got {other:?}"),
        }
        // Orphan.
        let mut tg = two_task_graph();
        tg.add_task("lonely", rat(1, 1)).unwrap();
        match tg.condensed() {
            Err(AnalysisError::NotADag { task, detail }) => {
                assert_eq!(task, "lonely");
                assert!(detail.contains("orphan"), "{detail}");
            }
            other => panic!("expected NotADag, got {other:?}"),
        }
        // Two disjoint chains: connected pairwise, still two components.
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        let b = tg.add_task("b", rat(1, 1)).unwrap();
        let c = tg.add_task("c", rat(1, 1)).unwrap();
        let d = tg.add_task("d", rat(1, 1)).unwrap();
        tg.connect("ab", a, b, q(&[1]), q(&[1])).unwrap();
        tg.connect("cd", c, d, q(&[1]), q(&[1])).unwrap();
        assert!(matches!(tg.condensed(), Err(AnalysisError::Disconnected)));
        // Empty.
        assert!(matches!(
            TaskGraph::new().condensed(),
            Err(AnalysisError::EmptyGraph)
        ));
        // A single task is a valid (trivial) DAG, as it is a valid chain.
        let mut tg = TaskGraph::new();
        tg.add_task("only", rat(1, 1)).unwrap();
        let dag = tg.condensed().unwrap();
        assert_eq!(dag.len(), 1);
        assert_eq!(dag.sources(), dag.sinks());
    }

    #[test]
    fn dag_buffer_order_follows_producers_not_insertion() {
        // A chain whose tasks and buffers are inserted sink-first: the
        // view must still order both source to sink, exactly like
        // `chain()`, so the DAG and chain analysis paths stay
        // positionally interchangeable on linear graphs.
        let mut tg = TaskGraph::new();
        let c = tg.add_task("c", rat(1, 1)).unwrap();
        let b = tg.add_task("b", rat(1, 1)).unwrap();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        tg.connect("bc", b, c, q(&[1]), q(&[1])).unwrap();
        tg.connect("ab", a, b, q(&[2]), q(&[2])).unwrap();
        let chain = tg.chain().unwrap();
        let dag = tg.condensed().unwrap();
        assert_eq!(dag.tasks(), chain.tasks());
        assert_eq!(dag.buffers(), chain.buffers());
        let names: Vec<&str> = dag.buffers().iter().map(|&b| tg.buffer(b).name()).collect();
        assert_eq!(names, vec!["ab", "bc"]);
    }

    #[test]
    fn chain_to_dag_preserves_chain_order() {
        let tg = TaskGraph::linear_chain(
            [("t0", rat(1, 1)), ("t1", rat(1, 1)), ("t2", rat(1, 1))],
            [("b0", q(&[2]), q(&[3])), ("b1", q(&[1]), q(&[4]))],
        )
        .unwrap();
        let chain = tg.chain().unwrap();
        let dag = chain.to_condensed();
        assert_eq!(dag.tasks(), chain.tasks());
        assert_eq!(dag.buffers(), chain.buffers());
        assert_eq!(dag.sources(), &[chain.source()]);
        assert_eq!(dag.sinks(), &[chain.sink()]);
        // And the direct validation agrees with the conversion.
        assert_eq!(tg.condensed().unwrap(), dag);
    }

    #[test]
    fn notadag_names_the_cycle_on_a_three_cycle_and_a_self_loop() {
        // Regular 3-cycle: a → b → c → a, no feedback declared.
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        let b = tg.add_task("b", rat(1, 1)).unwrap();
        let c = tg.add_task("c", rat(1, 1)).unwrap();
        tg.connect("ab", a, b, q(&[1]), q(&[1])).unwrap();
        tg.connect("bc", b, c, q(&[1]), q(&[1])).unwrap();
        tg.connect("ca", c, a, q(&[1]), q(&[1])).unwrap();
        match tg.condensed() {
            Err(AnalysisError::NotADag { task, detail }) => {
                assert_eq!(task, "a");
                assert!(detail.contains("`a -> b -> c -> a`"), "{detail}");
            }
            other => panic!("expected NotADag, got {other:?}"),
        }
        // Regular self-loop.
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        tg.connect("aa", a, a, q(&[1]), q(&[1])).unwrap();
        match tg.condensed() {
            Err(AnalysisError::NotADag { task, detail }) => {
                assert_eq!(task, "a");
                assert!(detail.contains("`a -> a`"), "{detail}");
            }
            other => panic!("expected NotADag, got {other:?}"),
        }
    }

    #[test]
    fn unbroken_cycle_names_the_cycle_path() {
        // 3-cycle closed by a zero-token feedback edge.
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        let b = tg.add_task("b", rat(1, 1)).unwrap();
        let c = tg.add_task("c", rat(1, 1)).unwrap();
        tg.connect("ab", a, b, q(&[1]), q(&[1])).unwrap();
        tg.connect("bc", b, c, q(&[1]), q(&[1])).unwrap();
        tg.connect_feedback("ca", c, a, q(&[1]), q(&[1]), 0)
            .unwrap();
        match tg.condensed() {
            Err(AnalysisError::UnbrokenCycle { cycle, detail }) => {
                assert_eq!(cycle, vec!["c", "a", "b", "c"]);
                assert!(detail.contains("`ca`"), "{detail}");
                assert!(detail.contains("no initial tokens"), "{detail}");
            }
            other => panic!("expected UnbrokenCycle, got {other:?}"),
        }
        // Zero-token feedback self-loop.
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        tg.connect_feedback("aa", a, a, q(&[1]), q(&[1]), 0)
            .unwrap();
        match tg.condensed() {
            Err(AnalysisError::UnbrokenCycle { cycle, .. }) => {
                assert_eq!(cycle, vec!["a", "a"]);
            }
            other => panic!("expected UnbrokenCycle, got {other:?}"),
        }
    }

    #[test]
    fn feedback_cycle_with_initial_tokens_is_accepted() {
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        let b = tg.add_task("b", rat(1, 1)).unwrap();
        let c = tg.add_task("c", rat(1, 1)).unwrap();
        tg.connect("ab", a, b, q(&[1]), q(&[1])).unwrap();
        tg.connect("bc", b, c, q(&[1]), q(&[1])).unwrap();
        let ca = tg
            .connect_feedback("ca", c, a, q(&[1]), q(&[1]), 4)
            .unwrap();
        assert!(tg.buffer(ca).is_feedback());
        assert_eq!(tg.buffer(ca).initial_tokens(), 4);
        let ab = tg.buffer_by_name("ab").unwrap();
        assert!(!tg.buffer(ab).is_feedback());
        assert_eq!(tg.buffer(ab).initial_tokens(), 0);
        let view = tg.condensed().unwrap();
        // Forward core orders a, b, c; the feedback edge rides along at
        // its producer's topological position without joining the order.
        let names: Vec<&str> = view.tasks().iter().map(|&t| tg.task(t).name()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        let bufs: Vec<&str> = view
            .buffers()
            .iter()
            .map(|&bid| tg.buffer(bid).name())
            .collect();
        assert_eq!(bufs, vec!["ab", "bc", "ca"]);
        assert_eq!(view.feedback_buffers(), &[ca]);
        // Sources and sinks ignore feedback edges.
        assert_eq!(view.sources(), &[a]);
        assert_eq!(view.sinks(), &[c]);
        assert_eq!(view.unique_source(&tg).unwrap(), a);
        assert_eq!(view.unique_sink(&tg).unwrap(), c);
    }

    #[test]
    fn chain_rejects_feedback_edges() {
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        let b = tg.add_task("b", rat(1, 1)).unwrap();
        tg.connect("ab", a, b, q(&[1]), q(&[1])).unwrap();
        tg.connect_feedback("ba", b, a, q(&[1]), q(&[1]), 2)
            .unwrap();
        match tg.chain() {
            Err(AnalysisError::NotAChain { task, detail }) => {
                assert_eq!(task, "b");
                assert!(detail.contains("feedback"), "{detail}");
            }
            other => panic!("expected NotAChain, got {other:?}"),
        }
        // But the condensed view accepts the two-task loop.
        let view = tg.condensed().unwrap();
        assert_eq!(view.len(), 2);
        assert_eq!(view.feedback_buffers().len(), 1);
    }

    #[test]
    fn ambiguous_endpoints_are_reported_with_names() {
        // Join from two sources: source-constrained analysis cannot pick.
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", rat(1, 1)).unwrap();
        let b = tg.add_task("b", rat(1, 1)).unwrap();
        let c = tg.add_task("c", rat(1, 1)).unwrap();
        tg.connect("ac", a, c, q(&[1]), q(&[1])).unwrap();
        tg.connect("bc", b, c, q(&[1]), q(&[1])).unwrap();
        let dag = tg.condensed().unwrap();
        assert_eq!(dag.unique_sink(&tg).unwrap(), c);
        match dag.unique_source(&tg) {
            Err(AnalysisError::AmbiguousEndpoint { role, tasks }) => {
                assert_eq!(role, "source");
                assert_eq!(tasks, vec!["a".to_owned(), "b".to_owned()]);
            }
            other => panic!("expected AmbiguousEndpoint, got {other:?}"),
        }
    }
}
