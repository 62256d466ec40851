(** Report generation from a {!Provenance} database.

    Two renderings of the same data:

    - {!json}: the machine-readable [REPORT_<target>.json].  Schema-
      versioned ({!Meta.schema_version}) and fully deterministic — it
      contains no wall-clock timings and no commit hash, all lists are
      emitted in stable orders, and waveform paths are reduced to
      their basenames — so two runs with the same seed produce
      byte-identical files (the golden-test property).
    - {!markdown}: the human report, reproducing the paper's table
      shape (candidates → proved → rewired → removed → area delta per
      stage) plus per-kind area breakdowns, the refuted-candidate
      waveform index, and the per-edit justification table.  Timings,
      histograms and the commit stamp are appended when provided —
      the report is deterministic modulo those sections. *)

type resume_summary = {
  rs_journal : string;  (** path of the run's [journal.jsonl] *)
  rs_resumed : bool;    (** the run replayed a prior journal *)
  rs_stages : string list;  (** stages replayed instead of recomputed *)
  rs_shards : int;          (** proof shards settled from checkpoints *)
  rs_dropped_lines : int;   (** torn journal tail lines truncated *)
}
(** Crash-safety provenance of a journaled run, mirroring
    [Pdat.Pipeline.resume_info] (this library sits below [pdat], so the
    record is duplicated here).  Optional on both renderings: when
    absent the output is byte-identical to pre-journal reports, which
    the golden tests rely on.  The JSON rendering keeps only the
    journal's basename so reports stay machine-independent. *)

val json :
  ?target:string ->
  ?induction:Engine.Induction.stats ->
  ?resume:resume_summary ->
  Provenance.t ->
  string
(** [induction], when given, adds a ["costs"] object: the run's
    deterministic top-K candidate-cost table (key, shard, SAT calls,
    conflicts, core-skip credits, a schema-v1 [static] flag that is
    always [false] — {e no wall time}, so
    the golden byte-determinism property is preserved) and the shard
    load-balance shape (worker count, shard sizes). *)

val markdown :
  ?target:string ->
  ?timings:(string * float) list ->
  ?histograms:(string * Obs.histogram) list ->
  ?commit:string ->
  ?induction:Engine.Induction.stats ->
  ?resume:resume_summary ->
  Provenance.t ->
  string
(** [induction] appends the cost-attribution table (here including
    per-candidate wall seconds) and the shard load-balance gauges
    (max/mean worker wall, idle fraction) — wall data lives in these
    non-deterministic markdown sections, never in the JSON. *)
