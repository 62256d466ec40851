(* The benchmark's workloads: which core, which reductions, and the
   pipeline settings each reduction runs with.  Environments come from
   the experiment catalog ([Experiments.Variants]), so the benchmark
   reduces the variants the paper's experiments reduce.  The seed is not part of a workload;
   [Harness] stamps it into the simulator and validator configurations
   of every run. *)

type design = Netlist.Design.t
type cut_nets = Netlist.Design.net array option

(* One reduction of a workload: the environment it runs under and, when
   that is not already port-level, the port-level model of the same
   restriction that the independent check uses. *)
type subset = {
  label : string;
  env : design -> cut_nets -> Pdat.Environment.t;
  check_env : (design -> Pdat.Environment.t) option;
      (** [None]: the check uses [env] itself *)
}

type t = {
  name : string;
  build : unit -> design * cut_nets;
      (** the core to reduce, with its cutpoint nets if it has them *)
  subsets : subset list;  (** one reduction each *)
  mine : Engine.Rsim.config;
  refine : Engine.Rsim.config;
  induction : Engine.Induction.options;
  validate : Pdat.Validate.config;
  jobs : int;
  shared_cache : bool;
      (** one in-memory proof cache across the workload's reductions *)
}

(* One reduction of a set-up workload. *)
type reduction = {
  label : string;
  design : design;
  env : Pdat.Environment.t;
  check_env : Pdat.Environment.t Lazy.t;
}

let reductions w design cut_nets =
  List.map
    (fun (s : subset) ->
      let env = s.env design cut_nets in
      let check_env =
        match s.check_env with
        | None -> Lazy.from_val env
        | Some f -> lazy (f design)
      in
      { label = s.label; design; env; check_env })
    w.subsets

(* A variant of the experiment catalog, reduced under its own
   environment. *)
let variant ?check id =
  let v = Experiments.Variants.find id in
  let env design cut_nets =
    match v.Experiments.Variants.make_env design ~cut_nets with
    | Some env -> env
    | None -> invalid_arg ("Workload.variant: " ^ id ^ " is a baseline")
  in
  ({ label = id; env; check_env = check } : subset)

(* The port-level model of an Ibex cutpoint variant's restriction; the
   catalog has no port-level Ibex variants. *)
let port ?(rv32e = false) subset design =
  Pdat.Environment.riscv_port ~rv32e design ~port:"instr_rdata" subset

(* The induction budgets of [Experiments.Runner] (k = 1 with per-call
   and total conflict caps), which its interface does not export.  They
   are pinned here on purpose: a change to the experiments' budgets must
   not change what this benchmark measures. *)
let capped ~total =
  {
    Engine.Induction.k = 1;
    call_conflict_budget = 30_000;
    total_conflict_budget = total;
    time_budget_s = infinity;
  }

let ibex () =
  let t = Cores.Ibex_like.build () in
  (t.Cores.Ibex_like.design, Some (Cores.Ibex_like.cutpoint_nets t))

(* RIDECORE scaled below [Experiments.Runner]'s fast configuration
   (ROB 16 / PRF 48 / IQ 8 / PHT 64 / BTB 8), so that one reduction fits
   a benchmark run; the prover still dominates the reduction. *)
let ridecore () =
  let config =
    {
      Cores.Ridecore_like.rob_entries = 8;
      phys_regs = 40;
      iq_entries = 4;
      pht_entries = 32;
      btb_entries = 4;
    }
  in
  ((Cores.Ridecore_like.build ~config ()).Cores.Ridecore_like.design, None)

let rsim ~cycles ~runs = { Engine.Rsim.default with Engine.Rsim.cycles; runs }

(* The paper's headline reduction exactly as [pdat reduce] runs it:
   simulator-bound, mine + refine take about three quarters of it. *)
let ibex_rv32i_cut =
  {
    name = "ibex-rv32i-cut";
    build = ibex;
    subsets = [ variant "ibex-rv32i" ~check:(port Isa.Subset.rv32i) ];
    mine = Engine.Rsim.default;
    refine = rsim ~cycles:2048 ~runs:4;
    induction = Engine.Induction.default_options;
    validate = Pdat.Validate.default;
    jobs = 1;
    shared_cache = false;
  }

(* The largest netlist, with short simulation and port stimulus:
   prover-bound, with validation (three lock-step simulators) second. *)
let ridecore_rv32i_port =
  {
    name = "ridecore-rv32i-port";
    build = ridecore;
    subsets = [ variant "ridecore-rv32i" ];
    mine = rsim ~cycles:128 ~runs:1;
    refine = rsim ~cycles:512 ~runs:1;
    induction = capped ~total:1_000_000;
    (* half the default validation runs: three lock-step simulators of
       the whole core keep validation the second-largest stage *)
    validate = { Pdat.Validate.default with Pdat.Validate.runs = 2 };
    jobs = 1;
    shared_cache = false;
  }

(* The three smallest of Figure 5's ISA subsets with short simulation:
   prover-bound, and the only workload that runs the forked worker pool
   and shares one proof cache across reductions, as [Experiments.Runner]
   does.  rv32imc and rv32im are left out so that a pass is short enough
   for a run to take the median of several. *)
let ibex_isa_sweep_j2 =
  {
    name = "ibex-isa-sweep-j2";
    build = ibex;
    subsets =
      [
        variant "ibex-rv32ic" ~check:(port Isa.Subset.rv32ic);
        variant "ibex-rv32i" ~check:(port Isa.Subset.rv32i);
        variant "ibex-rv32e" ~check:(port ~rv32e:true Isa.Subset.rv32e);
      ];
    mine = rsim ~cycles:64 ~runs:1;
    refine = rsim ~cycles:256 ~runs:1;
    induction = capped ~total:2_000_000;
    validate = Pdat.Validate.default;
    jobs = 2;
    shared_cache = true;
  }

(* A seconds-long workload on a generated netlist for the benchmark's
   own tests: it runs every path (untraced, traced, check, output) on
   the forked pool with a shared cache. *)
let smoke =
  let free label =
    ({ label; env = (fun d _ -> Pdat.Environment.unconstrained d); check_env = None }
      : subset)
  in
  {
    name = "smoke";
    build =
      (fun () ->
        ( Netlist.Generate.random ~seed:7
            ~config:
              { Netlist.Generate.n_inputs = 8; n_gates = 120; n_flops = 12;
                n_outputs = 6 }
            (),
          None ));
    subsets = [ free "free-a"; free "free-b" ];
    mine = rsim ~cycles:64 ~runs:1;
    refine = rsim ~cycles:128 ~runs:1;
    induction = capped ~total:100_000;
    validate = Pdat.Validate.default;
    jobs = 2;
    shared_cache = true;
  }

(* The benchmark proper; [smoke] is for the tests only. *)
let suite = [ ibex_rv32i_cut; ridecore_rv32i_port; ibex_isa_sweep_j2 ]

let find name = List.find_opt (fun w -> w.name = name) suite
