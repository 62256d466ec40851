(** Content-addressed invariant cache for the proof engine.

    Mutual induction proves that each surviving candidate holds on every
    state reachable under the environment assumption — a semantic fact
    about the (netlist, assumption, candidate) triple that is
    independent of which other candidates happened to be in the set.
    That makes proved verdicts safely reusable across runs: a later run
    over the same netlist and assumption may take every cached [Proved]
    candidate as a known invariant and skip its SAT work entirely.

    [Disproved] records a candidate that a completed proof run dropped
    (refuted or inconclusive).  Re-dropping it on a warm run is always
    sound — dropping candidates never breaks soundness, it only skips an
    optimization — and reproduces the cold run's result exactly.
    Verdicts from runs cut short by budgets or deadlines are never
    recorded (see {!Induction.prove_parallel}).

    Keys are content hashes: a [scope] digests the full cell list
    (kind, fanin nets, output net, reset value), the port declarations
    and the assumption net, so any structural change — one cell swapped,
    one wire moved — yields a different scope and a cold cache.  Within
    a scope, candidates address entries by {!Candidate.key}.  Net ids
    are meaningful inside a scope because the scope digest pins the
    exact netlist that defines them.

    A cache is in-memory by default; give it a directory and [flush]
    persists each scope to one file, loaded back lazily on first use.

    {2 Crash and concurrency hardening}

    The on-disk format is versioned ([pdat-proof-cache v2]) and every
    entry line carries its own CRC-32, so a torn or truncated write is
    localized: on the next open the valid prefix is salvaged, the
    damaged file is moved into [<dir>/quarantine/] for diagnosis, and
    the salvaged entries are rewritten clean on the next [flush].
    Flushes build the new file under a pid-unique [*.tmp] name and
    rename it into place; stale tmp files left by crashed writers are
    swept on [create].  All directory mutations take an exclusive
    [lockf] lock on [<dir>/.lock], so processes sharing a cache
    directory serialize their writes.  With [max_bytes], each flush
    evicts oldest-mtime scope files until the directory fits. *)

type t

type verdict = Proved | Disproved

type scope
(** A (design, assumption) universe of entries. *)

type stats = {
  hits : int;     (** lookups answered from the cache *)
  misses : int;   (** lookups that found nothing *)
  stored : int;   (** new entries recorded *)
  corrupt_files : int;  (** damaged scope files quarantined *)
  salvaged_entries : int;  (** CRC-valid entries recovered from them *)
  evicted_files : int;  (** scope files removed by size eviction *)
}

val create : ?dir:string -> ?max_bytes:int -> unit -> t
(** [dir], if given, enables disk persistence under that directory
    (created if missing; stale [*.tmp] files from crashed writers are
    removed).  [max_bytes] bounds the total size of scope files in the
    directory — enforced at [flush] by evicting oldest-mtime files
    first.  Without [dir] the cache lives and dies with the process. *)

val dir : t -> string option

val scope_digest : Netlist.Design.t -> assume:Netlist.Design.net -> string
(** The raw content hash of a (design, assumption) pair — also used by
    the run journal to pin a run to its exact netlist. *)

val scope :
  t ->
  design:Netlist.Design.t ->
  assume:Netlist.Design.net ->
  scope
(** Digests the design and assumption.  If the cache is disk-backed and
    this scope has a file, it is loaded now (damaged files count in
    [corrupt_files], salvage their valid prefix, and are quarantined). *)

val find : t -> scope -> Candidate.t -> verdict option

val record : t -> scope -> Candidate.t -> verdict -> unit
(** Last write wins; recording the already-present verdict is a no-op. *)

val flush : t -> unit
(** Writes every modified scope to disk (atomically, via a pid-unique
    tmp file and rename, under the directory lock), then applies the
    [max_bytes] eviction if configured.  No-op for in-memory caches. *)

val stats : t -> stats

val reset_counters : t -> unit
(** Zeroes all counters without touching entries — lets tests and
    benches meter a single run. *)
