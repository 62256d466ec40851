(** Deterministic fault/chaos injection hooks, driven by environment
    variables so they reach forked proof workers without plumbing.

    [PDAT_CHAOS] holds a comma-separated list of fault specs:

    - ["worker-kill"] / ["worker-kill:<i>"] — the matching proof worker
      (every worker, or worker [i]) SIGKILLs itself at the start of its
      shard, {e first attempt only}: the supervisor's retry must
      succeed, which is exactly the property the chaos matrix asserts.
    - ["worker-exit"] / ["worker-exit:<i>"] — the matching proof worker
      [_exit 3]s before proving, first attempt only: a plain non-zero
      exit status, where ["worker-kill"] is a fatal signal, so failure
      attribution can be checked for both.
    - ["slow-worker:<i>:<sec>"] — proof worker [i] sleeps [<sec>]
      seconds before proving (every attempt), so its result arrives
      after the others'.
    - ["cache-trunc"] — the first proof-cache scope file flushed by this
      process is truncated to half its size right after the atomic
      rename (one-shot), simulating a torn write that the per-entry
      CRCs must catch on the next open.
    - ["sigterm:<stage>"] — the process sends itself SIGTERM when the
      named pipeline stage starts (one-shot), simulating an operator
      kill; a journaled run must be resumable afterwards.
    - ["slow-solver"] / ["slow-solver:<sec>"] — every SAT solve sleeps
      for [<sec>] (default 0.002) seconds first: the synthetic
      regression the CI perf gate proves it can catch.  Implemented in
      [Sat.Solver] (the sat layer cannot depend on this module), listed
      here because [PDAT_CHAOS] is the single chaos surface.

    All hooks are inert when [PDAT_CHAOS] is unset — the production
    path pays one [getenv] per injection point. *)

val worker_kill_requested : idx:int -> attempt:int -> [ `No | `Exit3 | `Sigkill ]
(** What, if anything, the worker [idx] on [attempt] should do to
    itself before proving.  [`Exit3] comes from the ["worker-exit"]
    spec, [`Sigkill] from ["worker-kill"]; both fire only on
    [attempt = 0]. *)

val worker_delay : idx:int -> unit
(** Sleep if a ["slow-worker"] spec targets this worker. *)

val cache_truncate : path:string -> bool
(** If ["cache-trunc"] is armed and unspent, truncate the file at
    [path] to half its size, spend the one-shot, and return true. *)

val stage_sigterm : string -> unit
(** If ["sigterm:<stage>"] is armed for this stage name and unspent,
    spend the one-shot and send SIGTERM to the current process (the
    default disposition terminates it). *)

val reset : unit -> unit
(** Re-arm the process-local one-shots (for tests that run several
    scenarios in one process). *)
