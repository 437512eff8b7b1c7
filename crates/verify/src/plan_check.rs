//! Static soundness verification for lowered execution plans.
//!
//! The arena executor in `orpheus` runs a lowered plan under invariants the
//! planner is *supposed* to guarantee but nothing re-checks: buffers are
//! reclaimed exactly when their slot dies, no two live values share a
//! buffer, view-moves only steal storage that is genuinely dying, and every
//! batch bucket of the ladder agrees on liveness. This module proves those
//! invariants by abstract interpretation: [`check_plan`] walks the step
//! list once per bucket, tracking each slot's state (unwritten → live →
//! moved/reclaimed) and each buffer's current owner, and emits a stable
//! [`Diagnostic`] (`ORV015`–`ORV022`) for every violation.
//!
//! Because `orpheus` (core) depends on this crate, the checker works on a
//! backend-neutral [`PlanSpec`] description rather than the engine's own
//! plan types; the engine converts its lowered plan into a spec and runs
//! the checker as a debug-build sanitizer at `Engine::load`, and
//! `orpheus-cli lint --check-plan` renders the same verdicts per bucket.
//!
//! The [`corrupt_plan`] injectors mutate a valid spec into a known-bad one
//! — one injector per diagnostic code — so tests can prove the checker
//! actually fires (and the engine sanitizer actually rejects).

use orpheus_observe::{self as observe, json};

use crate::diagnostic::{Code, Diagnostic};

/// Bytes per f32 element (matches the planner's accounting).
const BYTES_PER_ELEMENT: usize = 4;

/// One lowered step: which slots it reads and which it writes.
#[derive(Debug, Clone)]
pub struct StepSpec {
    /// Layer name, for diagnostics.
    pub name: String,
    /// Activation slots the step reads.
    pub inputs: Vec<usize>,
    /// The slot the step writes.
    pub output: usize,
}

/// One batch bucket's memory plan, as slot→buffer tables.
#[derive(Debug, Clone)]
pub struct BucketSpec {
    /// Absolute batch size this bucket serves.
    pub batch: usize,
    /// Element footprint of each slot's value at this batch.
    pub slot_elems: Vec<usize>,
    /// For each slot, the arena buffer hosting its value.
    pub buffer_of: Vec<usize>,
    /// Planned element capacity of each arena buffer.
    pub buffer_elems: Vec<usize>,
    /// For each step, whether it executes as a buffer move.
    pub view_move: Vec<bool>,
    /// For each step, the slots whose buffers return to the arena after it.
    pub reclaim_at: Vec<Vec<usize>>,
}

impl BucketSpec {
    /// Total planned arena bytes of this bucket.
    pub fn arena_bytes(&self) -> usize {
        self.buffer_elems.iter().sum::<usize>() * BYTES_PER_ELEMENT
    }
}

/// A backend-neutral description of a lowered plan plus its per-bucket
/// memory plans — everything [`check_plan`] needs, nothing engine-specific.
#[derive(Debug, Clone)]
pub struct PlanSpec {
    /// Model name, for diagnostics and flight records.
    pub model: String,
    /// Number of activation slots.
    pub num_slots: usize,
    /// The slot holding the graph input (materialized before step 0).
    pub input_slot: usize,
    /// The slot holding the graph output (never reclaimed).
    pub output_slot: usize,
    /// The lowered steps, in execution order (shared by every bucket).
    pub steps: Vec<StepSpec>,
    /// For each slot, the last step reading it (`usize::MAX` = never /
    /// kept alive as the graph output).
    pub last_use: Vec<usize>,
    /// One memory plan per batch bucket, ascending by batch.
    pub buckets: Vec<BucketSpec>,
}

/// The verdict for one bucket: its batch size and every violation found.
#[derive(Debug, Clone)]
pub struct BucketVerdict {
    /// Absolute batch size of the bucket.
    pub batch: usize,
    /// Violations found walking this bucket's plan (empty = sound).
    pub diagnostics: Vec<Diagnostic>,
}

/// Everything [`check_plan`] proves (or refutes) about one plan.
#[derive(Debug, Clone)]
pub struct PlanCheckReport {
    /// Model name.
    pub model: String,
    /// Per-bucket verdicts, ascending by batch.
    pub buckets: Vec<BucketVerdict>,
    /// Cross-bucket ladder violations (monotonicity, schedule drift).
    pub ladder: Vec<Diagnostic>,
}

impl PlanCheckReport {
    /// Total error-severity findings across buckets and the ladder.
    pub fn errors(&self) -> usize {
        self.all_diagnostics()
            .filter(|d| d.severity == crate::diagnostic::Severity::Error)
            .count()
    }

    /// Whether every bucket (and the ladder) verified clean.
    pub fn is_clean(&self) -> bool {
        self.buckets.iter().all(|b| b.diagnostics.is_empty()) && self.ladder.is_empty()
    }

    /// Every finding, bucket verdicts first, then ladder findings.
    pub fn all_diagnostics(&self) -> impl Iterator<Item = &Diagnostic> {
        self.buckets
            .iter()
            .flat_map(|b| b.diagnostics.iter())
            .chain(self.ladder.iter())
    }

    /// Human-readable multi-line rendering (one verdict line per bucket).
    pub fn render(&self) -> String {
        let mut out = String::from("plan check:\n");
        for bucket in &self.buckets {
            if bucket.diagnostics.is_empty() {
                out.push_str(&format!("  bucket {}: ok\n", bucket.batch));
            } else {
                out.push_str(&format!(
                    "  bucket {}: {} violation(s)\n",
                    bucket.batch,
                    bucket.diagnostics.len()
                ));
                for diagnostic in &bucket.diagnostics {
                    out.push_str(&format!("    {diagnostic}\n"));
                }
            }
        }
        if self.ladder.is_empty() {
            if self.buckets.len() > 1 {
                out.push_str("  ladder: consistent\n");
            }
        } else {
            out.push_str(&format!("  ladder: {} violation(s)\n", self.ladder.len()));
            for diagnostic in &self.ladder {
                out.push_str(&format!("    {diagnostic}\n"));
            }
        }
        out
    }

    /// One JSON object (no trailing newline), machine-readable.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"model\":\"");
        json::escape_into(&mut out, &self.model);
        out.push_str(&format!("\",\"errors\":{},\"buckets\":[", self.errors()));
        for (i, bucket) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"batch\":{},\"diagnostics\":[", bucket.batch));
            for (j, diagnostic) in bucket.diagnostics.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&diagnostic.to_json());
            }
            out.push_str("]}");
        }
        out.push_str("],\"ladder\":[");
        for (i, diagnostic) in self.ladder.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&diagnostic.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// Abstract slot state while walking one bucket's plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// No step has produced the slot yet.
    Unwritten,
    /// The slot holds a live value owning its buffer.
    Live,
    /// A view-move transferred the slot's storage to its consumer.
    Moved,
    /// The slot's buffer was returned to the arena after this step.
    Reclaimed(usize),
}

/// Verifies a lowered plan: walks every bucket with an abstract interpreter
/// proving the executor's reuse invariants, then cross-checks the bucket
/// ladder. Violations come back as `ORV015`–`ORV022` diagnostics; a bucket
/// with errors is also flight-recorded as `plan verify.fail` so plan bugs
/// surface in the crash-forensics ring.
pub fn check_plan(spec: &PlanSpec) -> PlanCheckReport {
    let mut report = PlanCheckReport {
        model: spec.model.clone(),
        buckets: Vec::with_capacity(spec.buckets.len()),
        ladder: Vec::new(),
    };
    for bucket in &spec.buckets {
        let mut diagnostics = Vec::new();
        if check_bucket_structure(spec, bucket, &mut diagnostics) {
            check_bucket(spec, bucket, &mut diagnostics);
        }
        report.buckets.push(BucketVerdict {
            batch: bucket.batch,
            diagnostics,
        });
    }
    check_ladder(spec, &mut report.ladder);

    for bucket in &report.buckets {
        if let Some(first) = bucket.diagnostics.first() {
            observe::flight_record(
                "plan",
                "verify.fail",
                format!("{} bucket {}: {}", spec.model, bucket.batch, first.code),
            );
        }
    }
    if let Some(first) = report.ladder.first() {
        observe::flight_record(
            "plan",
            "verify.fail",
            format!("{} ladder: {}", spec.model, first.code),
        );
    }
    report
}

/// Structural prechecks: table lengths and buffer indices. Returns whether
/// the bucket is well-formed enough to walk (malformed tables would make
/// the interpreter index out of bounds).
fn check_bucket_structure(spec: &PlanSpec, bucket: &BucketSpec, out: &mut Vec<Diagnostic>) -> bool {
    let batch = bucket.batch;
    let mut sound = true;
    for (table, len, expect) in [
        ("slot_elems", bucket.slot_elems.len(), spec.num_slots),
        ("buffer_of", bucket.buffer_of.len(), spec.num_slots),
        ("view_move", bucket.view_move.len(), spec.steps.len()),
        ("reclaim_at", bucket.reclaim_at.len(), spec.steps.len()),
        ("last_use", spec.last_use.len(), spec.num_slots),
    ] {
        if len != expect {
            out.push(Diagnostic::graph(
                Code::PlanBucketMismatch,
                format!("bucket {batch}: {table} has {len} entries, plan expects {expect}"),
            ));
            sound = false;
        }
    }
    if !sound {
        return false;
    }
    for (slot, &buffer) in bucket.buffer_of.iter().enumerate() {
        if buffer >= bucket.buffer_elems.len() {
            out.push(Diagnostic::graph(
                Code::PlanExtentOverflow,
                format!(
                    "bucket {batch}: slot {slot} names buffer {buffer}, plan has only {} buffer(s)",
                    bucket.buffer_elems.len()
                ),
            ));
            sound = false;
        }
    }
    let slot_ok = |slot: usize| slot < spec.num_slots;
    if !slot_ok(spec.input_slot) || !slot_ok(spec.output_slot) {
        out.push(Diagnostic::graph(
            Code::PlanBucketMismatch,
            format!(
                "bucket {batch}: input/output slot out of range ({}/{} of {})",
                spec.input_slot, spec.output_slot, spec.num_slots
            ),
        ));
        sound = false;
    }
    for step in &spec.steps {
        if !slot_ok(step.output) || step.inputs.iter().any(|&s| !slot_ok(s)) {
            out.push(Diagnostic::at(
                Code::PlanBucketMismatch,
                &step.name,
                format!(
                    "bucket {batch}: step wires a slot out of range (num_slots {})",
                    spec.num_slots
                ),
            ));
            sound = false;
        }
    }
    for (i, reclaims) in bucket.reclaim_at.iter().enumerate() {
        if reclaims.iter().any(|&s| !slot_ok(s)) {
            out.push(Diagnostic::graph(
                Code::PlanBucketMismatch,
                format!("bucket {batch}: reclaim list of step {i} names a slot out of range"),
            ));
            sound = false;
        }
    }
    sound
}

/// The abstract interpreter: one pass over the step list, mirroring the
/// buffer lifetimes `Session::run` relies on — the input is live before
/// step 0; per step, a view-move output takes over its dying input's buffer
/// and any other output is written into its own buffer; then the step's
/// reclaim list frees buffers for reuse.
fn check_bucket(spec: &PlanSpec, bucket: &BucketSpec, out: &mut Vec<Diagnostic>) {
    let batch = bucket.batch;
    let mut state = vec![SlotState::Unwritten; spec.num_slots];
    // Current live owner of each arena buffer (at most one at any time).
    let mut owner: Vec<Option<usize>> = vec![None; bucket.buffer_elems.len()];

    // Per-buffer extent >= the footprint of every slot it hosts.
    for slot in 0..spec.num_slots {
        let buffer = bucket.buffer_of[slot];
        if bucket.buffer_elems[buffer] < bucket.slot_elems[slot] {
            out.push(Diagnostic::graph(
                Code::PlanExtentOverflow,
                format!(
                    "bucket {batch}: slot {slot} needs {} element(s) but its buffer {buffer} \
                     holds only {}",
                    bucket.slot_elems[slot], bucket.buffer_elems[buffer]
                ),
            ));
        }
    }

    // The graph input is materialized before the first step runs.
    state[spec.input_slot] = SlotState::Live;
    owner[bucket.buffer_of[spec.input_slot]] = Some(spec.input_slot);

    for (i, step) in spec.steps.iter().enumerate() {
        if bucket.view_move[i] {
            check_view_move(spec, bucket, i, &mut state, &mut owner, out);
        } else {
            // Every input must be a live value.
            for &input in &step.inputs {
                match state[input] {
                    SlotState::Live => {}
                    SlotState::Unwritten => out.push(Diagnostic::at(
                        Code::PlanReadBeforeWrite,
                        &step.name,
                        format!(
                            "bucket {batch}: step {i} reads slot {input} before any step writes it"
                        ),
                    )),
                    SlotState::Reclaimed(at) => out.push(Diagnostic::at(
                        Code::PlanUseAfterReclaim,
                        &step.name,
                        format!(
                            "bucket {batch}: step {i} reads slot {input}, whose buffer was \
                             reclaimed after step {at}"
                        ),
                    )),
                    SlotState::Moved => out.push(Diagnostic::at(
                        Code::PlanUseAfterReclaim,
                        &step.name,
                        format!(
                            "bucket {batch}: step {i} reads slot {input}, whose storage a \
                             view-move already transferred"
                        ),
                    )),
                }
            }
            // Single writer: the output slot must still be unwritten.
            if state[step.output] != SlotState::Unwritten || step.output == spec.input_slot {
                out.push(Diagnostic::at(
                    Code::PlanMultipleWriters,
                    &step.name,
                    format!(
                        "bucket {batch}: step {i} writes slot {}, which already held a value",
                        step.output
                    ),
                ));
            }
            // Materializing the output takes its buffer from the arena: no
            // other live slot may own it (reclaims of this step's inputs
            // happen *after* the step, so they do not free it in time).
            let buffer = bucket.buffer_of[step.output];
            if let Some(current) = owner[buffer] {
                if current != step.output {
                    out.push(Diagnostic::at(
                        Code::PlanBufferAliasing,
                        &step.name,
                        format!(
                            "bucket {batch}: step {i} materializes slot {} into buffer {buffer}, \
                             still owned by live slot {current}",
                            step.output
                        ),
                    ));
                }
            }
            state[step.output] = SlotState::Live;
            owner[buffer] = Some(step.output);
        }

        // After the step: buffers named in the reclaim list return to the
        // arena. Each entry must be a live value dying exactly here.
        for &slot in &bucket.reclaim_at[i] {
            match state[slot] {
                SlotState::Live => {
                    match spec.last_use[slot] {
                        usize::MAX => out.push(Diagnostic::graph(
                            Code::PlanReclaimLeak,
                            format!(
                                "bucket {batch}: step {i} reclaims slot {slot}, which must stay \
                                 alive (graph output or never-read)"
                            ),
                        )),
                        last if last > i => out.push(Diagnostic::graph(
                            Code::PlanUseAfterReclaim,
                            format!(
                                "bucket {batch}: slot {slot} is reclaimed after step {i} but \
                                 read again at step {last}"
                            ),
                        )),
                        last if last < i => out.push(Diagnostic::graph(
                            Code::PlanReclaimLeak,
                            format!(
                                "bucket {batch}: slot {slot} is reclaimed after step {i}, \
                                 {} step(s) later than its last read at step {last}",
                                i - last
                            ),
                        )),
                        _ => {}
                    }
                    state[slot] = SlotState::Reclaimed(i);
                    let buffer = bucket.buffer_of[slot];
                    if owner[buffer] == Some(slot) {
                        owner[buffer] = None;
                    }
                }
                SlotState::Unwritten => out.push(Diagnostic::graph(
                    Code::PlanReclaimLeak,
                    format!(
                        "bucket {batch}: step {i} reclaims slot {slot}, which was never produced"
                    ),
                )),
                SlotState::Reclaimed(at) => out.push(Diagnostic::graph(
                    Code::PlanReclaimLeak,
                    format!(
                        "bucket {batch}: step {i} reclaims slot {slot} a second time \
                         (first after step {at})"
                    ),
                )),
                SlotState::Moved => out.push(Diagnostic::graph(
                    Code::PlanReclaimLeak,
                    format!(
                        "bucket {batch}: step {i} reclaims view-move donor slot {slot}, whose \
                         buffer transferred to its consumer"
                    ),
                )),
            }
        }
    }

    // The graph output must survive the whole walk.
    if state[spec.output_slot] != SlotState::Live {
        out.push(Diagnostic::graph(
            Code::PlanReadBeforeWrite,
            format!(
                "bucket {batch}: output slot {} is not a live value after the last step \
                 (state {:?})",
                spec.output_slot, state[spec.output_slot]
            ),
        ));
    }
    // Every dying slot must have given its buffer back (reclaim or move);
    // a still-live dead slot means the arena leaks a buffer per run.
    for (slot, slot_state) in state.iter().enumerate().take(spec.num_slots) {
        if spec.last_use[slot] != usize::MAX && *slot_state == SlotState::Live {
            out.push(Diagnostic::graph(
                Code::PlanReclaimLeak,
                format!(
                    "bucket {batch}: slot {slot} dies at step {} but no reclaim returns \
                     buffer {} to the arena",
                    spec.last_use[slot], bucket.buffer_of[slot]
                ),
            ));
        }
    }
}

/// Checks one view-move step: single dying input, matching extents, and a
/// shared buffer, then transfers ownership input → output.
fn check_view_move(
    spec: &PlanSpec,
    bucket: &BucketSpec,
    i: usize,
    state: &mut [SlotState],
    owner: &mut [Option<usize>],
    out: &mut Vec<Diagnostic>,
) {
    let step = &spec.steps[i];
    let batch = bucket.batch;
    let mut bad = |message: String| {
        out.push(Diagnostic::at(
            Code::PlanInvalidViewMove,
            &step.name,
            message,
        ));
    };
    if step.inputs.len() != 1 {
        bad(format!(
            "bucket {batch}: step {i} view-moves with {} inputs (need exactly 1)",
            step.inputs.len()
        ));
        return;
    }
    let input = step.inputs[0];
    match state[input] {
        SlotState::Live => {}
        other => bad(format!(
            "bucket {batch}: step {i} view-moves slot {input}, which is not live ({other:?})"
        )),
    }
    if spec.last_use[input] != i {
        bad(format!(
            "bucket {batch}: step {i} view-moves slot {input}, which does not die here \
             (last read at step {})",
            match spec.last_use[input] {
                usize::MAX => "never".to_string(),
                step => step.to_string(),
            }
        ));
    }
    if bucket.slot_elems[input] != bucket.slot_elems[step.output] {
        bad(format!(
            "bucket {batch}: step {i} view-moves {} element(s) into a {}-element slot",
            bucket.slot_elems[input], bucket.slot_elems[step.output]
        ));
    }
    if bucket.buffer_of[input] != bucket.buffer_of[step.output] {
        bad(format!(
            "bucket {batch}: step {i} view-moves across buffers ({} -> {})",
            bucket.buffer_of[input], bucket.buffer_of[step.output]
        ));
    }
    if state[step.output] != SlotState::Unwritten || step.output == spec.input_slot {
        out.push(Diagnostic::at(
            Code::PlanMultipleWriters,
            &step.name,
            format!(
                "bucket {batch}: step {i} writes slot {}, which already held a value",
                step.output
            ),
        ));
    }
    // The move: the donor's storage becomes the output's.
    if state[input] == SlotState::Live {
        state[input] = SlotState::Moved;
    }
    state[step.output] = SlotState::Live;
    let buffer = bucket.buffer_of[step.output];
    if buffer < owner.len() {
        owner[buffer] = Some(step.output);
    }
}

/// Cross-bucket ladder checks: ascending batches, monotone arena bytes, and
/// identical view-move/reclaim schedules in every rung (liveness and step
/// order are batch-independent, so the schedules must agree exactly).
fn check_ladder(spec: &PlanSpec, out: &mut Vec<Diagnostic>) {
    for pair in spec.buckets.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        if hi.batch <= lo.batch {
            out.push(Diagnostic::graph(
                Code::PlanBucketMismatch,
                format!(
                    "bucket ladder is not ascending: batch {} follows batch {}",
                    hi.batch, lo.batch
                ),
            ));
        }
        if hi.arena_bytes() < lo.arena_bytes() {
            out.push(Diagnostic::graph(
                Code::PlanBucketMismatch,
                format!(
                    "arena bytes shrink up the ladder: bucket {} plans {} byte(s), \
                     bucket {} plans {}",
                    lo.batch,
                    lo.arena_bytes(),
                    hi.batch,
                    hi.arena_bytes()
                ),
            ));
        }
        if hi.view_move != lo.view_move {
            out.push(Diagnostic::graph(
                Code::PlanBucketMismatch,
                format!(
                    "view-move schedule differs between buckets {} and {} \
                     (liveness must be batch-independent)",
                    lo.batch, hi.batch
                ),
            ));
        }
        if hi.reclaim_at != lo.reclaim_at {
            out.push(Diagnostic::graph(
                Code::PlanBucketMismatch,
                format!(
                    "reclaim schedule differs between buckets {} and {} \
                     (liveness must be batch-independent)",
                    lo.batch, hi.batch
                ),
            ));
        }
    }
}

/// One way to break a valid plan — the test-support corruption harness.
/// Each variant, applied via [`corrupt_plan`], is pinned to the diagnostic
/// code [`PlanCorruption::expected_code`] returns, so every `ORV015`–
/// `ORV022` code has a known-bad fixture proving the checker fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanCorruption {
    /// Move a reclaim one step earlier than the slot's last read → ORV015.
    EarlyReclaim,
    /// Map a step's output onto a buffer a live input still owns → ORV016.
    AliasBuffers,
    /// Mark a compute step as a view-move of a non-dying input → ORV017.
    ForceViewMove,
    /// Rewire a step to read a slot only a later step produces → ORV018.
    ReadBeforeWrite,
    /// Make a later step overwrite an earlier step's output slot → ORV019.
    DoubleWrite,
    /// Shrink a buffer's extent below a hosted slot's footprint → ORV020.
    ShrinkExtent,
    /// Drop a reclaim entry so a buffer never returns → ORV021.
    DropReclaim,
    /// Grow a lower bucket's arena past the next rung's → ORV022.
    BreakLadder,
}

impl PlanCorruption {
    /// Every corruption, in `ORV015`..`ORV022` order.
    pub const ALL: [PlanCorruption; 8] = [
        PlanCorruption::EarlyReclaim,
        PlanCorruption::AliasBuffers,
        PlanCorruption::ForceViewMove,
        PlanCorruption::ReadBeforeWrite,
        PlanCorruption::DoubleWrite,
        PlanCorruption::ShrinkExtent,
        PlanCorruption::DropReclaim,
        PlanCorruption::BreakLadder,
    ];

    /// The diagnostic code this corruption is guaranteed to trigger.
    pub fn expected_code(&self) -> Code {
        match self {
            PlanCorruption::EarlyReclaim => Code::PlanUseAfterReclaim,
            PlanCorruption::AliasBuffers => Code::PlanBufferAliasing,
            PlanCorruption::ForceViewMove => Code::PlanInvalidViewMove,
            PlanCorruption::ReadBeforeWrite => Code::PlanReadBeforeWrite,
            PlanCorruption::DoubleWrite => Code::PlanMultipleWriters,
            PlanCorruption::ShrinkExtent => Code::PlanExtentOverflow,
            PlanCorruption::DropReclaim => Code::PlanReclaimLeak,
            PlanCorruption::BreakLadder => Code::PlanBucketMismatch,
        }
    }
}

impl std::fmt::Display for PlanCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            PlanCorruption::EarlyReclaim => "early-reclaim",
            PlanCorruption::AliasBuffers => "alias-buffers",
            PlanCorruption::ForceViewMove => "force-view-move",
            PlanCorruption::ReadBeforeWrite => "read-before-write",
            PlanCorruption::DoubleWrite => "double-write",
            PlanCorruption::ShrinkExtent => "shrink-extent",
            PlanCorruption::DropReclaim => "drop-reclaim",
            PlanCorruption::BreakLadder => "break-ladder",
        };
        f.write_str(name)
    }
}

/// Applies one corruption to `bucket` of a (presumed valid) spec, returning
/// whether a mutation site was found. Step-level corruptions (read order,
/// double writes) mutate the shared step list and so affect every bucket;
/// the rest touch only the targeted bucket's tables.
pub fn corrupt_plan(spec: &mut PlanSpec, corruption: PlanCorruption, bucket: usize) -> bool {
    if bucket >= spec.buckets.len() {
        return false;
    }
    match corruption {
        PlanCorruption::EarlyReclaim => {
            // Move the first reclaim entry one step earlier than the slot
            // actually dies.
            let b = &mut spec.buckets[bucket];
            for i in 1..b.reclaim_at.len() {
                if let Some(slot) = b.reclaim_at[i].pop() {
                    b.reclaim_at[i - 1].push(slot);
                    return true;
                }
            }
            false
        }
        PlanCorruption::AliasBuffers => {
            // Give a step's output the same buffer as an input that is
            // still live while the output materializes.
            let steps = &spec.steps;
            let b = &mut spec.buckets[bucket];
            for (i, step) in steps.iter().enumerate() {
                if b.view_move[i] {
                    continue;
                }
                for &input in &step.inputs {
                    if b.buffer_of[input] != b.buffer_of[step.output] {
                        b.buffer_of[step.output] = b.buffer_of[input];
                        // Keep the extent invariant intact so only the
                        // aliasing fires.
                        let need = b.slot_elems[step.output];
                        let buffer = b.buffer_of[input];
                        if b.buffer_elems[buffer] < need {
                            b.buffer_elems[buffer] = need;
                        }
                        return true;
                    }
                }
            }
            false
        }
        PlanCorruption::ForceViewMove => {
            // Claim a compute step is a move even though the move would be
            // unsound (input not a dying single-reader alias of the output).
            let (steps, last_use) = (&spec.steps, &spec.last_use);
            let b = &mut spec.buckets[bucket];
            for (i, step) in steps.iter().enumerate() {
                if b.view_move[i] {
                    continue;
                }
                let valid_move = step.inputs.len() == 1
                    && last_use[step.inputs[0]] == i
                    && b.slot_elems[step.inputs[0]] == b.slot_elems[step.output]
                    && b.buffer_of[step.inputs[0]] == b.buffer_of[step.output];
                if !valid_move {
                    b.view_move[i] = true;
                    return true;
                }
            }
            false
        }
        PlanCorruption::ReadBeforeWrite => {
            // Rewire the first step to read the last step's output.
            let last_output = match spec.steps.last() {
                Some(step) if spec.steps.len() > 1 => step.output,
                _ => return false,
            };
            match spec.steps.first_mut() {
                Some(first) if !first.inputs.is_empty() => {
                    first.inputs[0] = last_output;
                    true
                }
                _ => false,
            }
        }
        PlanCorruption::DoubleWrite => {
            // The last step overwrites the first step's output slot.
            let first_output = match spec.steps.first() {
                Some(step) if spec.steps.len() > 1 => step.output,
                _ => return false,
            };
            if let Some(last) = spec.steps.last_mut() {
                last.output = first_output;
                return true;
            }
            false
        }
        PlanCorruption::ShrinkExtent => {
            // Undercut the buffer extent of the largest slot.
            let num_slots = spec.num_slots;
            let b = &mut spec.buckets[bucket];
            let largest = (0..num_slots).max_by_key(|&s| b.slot_elems[s]);
            match largest {
                Some(slot) if b.slot_elems[slot] > 0 => {
                    b.buffer_elems[b.buffer_of[slot]] = b.slot_elems[slot] - 1;
                    true
                }
                _ => false,
            }
        }
        PlanCorruption::DropReclaim => {
            for reclaims in spec.buckets[bucket].reclaim_at.iter_mut() {
                if !reclaims.is_empty() {
                    reclaims.clear();
                    return true;
                }
            }
            false
        }
        PlanCorruption::BreakLadder => {
            // Inflate this bucket's arena past the next rung's so arena
            // bytes shrink up the ladder (extents only grow, so no other
            // invariant trips).
            let next_bytes = match spec.buckets.get(bucket + 1) {
                Some(next) => next.arena_bytes(),
                None => return false,
            };
            let b = &mut spec.buckets[bucket];
            match b.buffer_elems.first_mut() {
                Some(extent) => {
                    *extent += next_bytes / BYTES_PER_ELEMENT + 1;
                    true
                }
                None => false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// input 0 -> relu(1) -> flatten(2, view-move) -> dense(3): covers a
    /// compute step, a view-move, reclaims, and buffer reuse.
    fn valid_spec(buckets: usize) -> PlanSpec {
        let step = |name: &str, inputs: &[usize], output: usize| StepSpec {
            name: name.to_string(),
            inputs: inputs.to_vec(),
            output,
        };
        let bucket = |batch: usize| BucketSpec {
            batch,
            slot_elems: vec![8 * batch, 8 * batch, 8 * batch, 2 * batch],
            // relu output (slot 1) view-moves into slot 2; dense output
            // (slot 3) reuses the input's buffer once slot 0 dies.
            buffer_of: vec![0, 1, 1, 0],
            buffer_elems: vec![8 * batch, 8 * batch],
            view_move: vec![false, true, false],
            reclaim_at: vec![vec![0], vec![], vec![2]],
        };
        PlanSpec {
            model: "fixture".to_string(),
            num_slots: 4,
            input_slot: 0,
            output_slot: 3,
            steps: vec![
                step("relu", &[0], 1),
                step("flatten", &[1], 2),
                step("dense", &[2], 3),
            ],
            last_use: vec![0, 1, 2, usize::MAX],
            buckets: (0..buckets).map(|i| bucket(1 << i)).collect(),
        }
    }

    #[test]
    fn valid_plan_checks_clean() {
        let report = check_plan(&valid_spec(3));
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.errors(), 0);
        assert_eq!(report.buckets.len(), 3);
        assert!(report.render().contains("bucket 4: ok"));
        assert!(report.render().contains("ladder: consistent"));
        assert!(report.to_json().contains("\"errors\":0"));
    }

    #[test]
    fn every_corruption_fires_its_pinned_code() {
        for corruption in PlanCorruption::ALL {
            let mut spec = valid_spec(2);
            assert!(
                corrupt_plan(&mut spec, corruption, 0),
                "{corruption} found no mutation site"
            );
            let report = check_plan(&spec);
            let expected = corruption.expected_code();
            assert!(
                report.all_diagnostics().any(|d| d.code == expected),
                "{corruption} did not trigger {expected}:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn corruption_names_the_bucket() {
        let mut spec = valid_spec(2);
        assert!(corrupt_plan(&mut spec, PlanCorruption::DropReclaim, 1));
        let report = check_plan(&spec);
        assert!(report.buckets[0].diagnostics.is_empty());
        assert!(!report.buckets[1].diagnostics.is_empty());
        assert!(report.buckets[1].diagnostics[0]
            .message
            .contains("bucket 2"));
    }

    #[test]
    fn reclaim_drift_is_a_ladder_violation() {
        let mut spec = valid_spec(2);
        spec.buckets[1].reclaim_at[0].clear();
        let report = check_plan(&spec);
        assert!(report
            .ladder
            .iter()
            .any(|d| d.code == Code::PlanBucketMismatch));
    }

    #[test]
    fn malformed_tables_do_not_panic() {
        let mut spec = valid_spec(1);
        spec.buckets[0].buffer_of = vec![0];
        let report = check_plan(&spec);
        assert!(report
            .all_diagnostics()
            .any(|d| d.code == Code::PlanBucketMismatch));

        let mut spec = valid_spec(1);
        spec.buckets[0].buffer_of = vec![9, 9, 9, 9];
        let report = check_plan(&spec);
        assert!(report
            .all_diagnostics()
            .any(|d| d.code == Code::PlanExtentOverflow));
    }

    #[test]
    fn failing_check_flight_records() {
        let before = observe::flight_recorded();
        let mut spec = valid_spec(1);
        assert!(corrupt_plan(&mut spec, PlanCorruption::DropReclaim, 0));
        let _ = check_plan(&spec);
        assert!(observe::flight_recorded() > before);
        let events = observe::flight_snapshot();
        assert!(
            events.iter().any(|e| e.category == "plan"
                && e.label == "verify.fail"
                && e.detail.contains("fixture bucket 1: ORV0")),
            "{events:?}"
        );
    }
}
