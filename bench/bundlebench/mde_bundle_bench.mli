(** The tuple-bundle engine benchmark, shared by [bench/main -- --bundle]
    and [mde_cli bundle-bench] so both record the same experiment.

    One SBP-style stochastic table ([rows] driver rows), one fixed plan
    (uncertain-float predicate, derived risk column, Avg/Max/Count
    aggregates), three executions of the identical query:

    - {e naive}: one realized instance per repetition
      ({!Mde.Mcdb.Stochastic_table.instantiate_many}), the plan run once
      per instance through {!Mde.Relational.Algebra} — MCDB's "run the
      query once per database instance" baseline;
    - {e interpreted}: the columnar bundle swept by the boxed
      {!Mde.Relational.Expr} interpreter ([~impl:`Interpreter]);
    - {e columnar}: the same bundle through the compiled kernels
      ([~impl:`Kernel]).

    Construction (instantiation / bundle build) is timed separately from
    query execution, and every timing carries its [Gc.allocated_bytes]
    delta. All three paths must produce bit-identical samples
    ({!result.identical}, checked by {!gate}). *)

type timing = { seconds : float; alloc_bytes : float }

type result = {
  rows : int;
  reps : int;
  cells : int;  (** rows × reps *)
  naive_build : timing;  (** instantiate_many *)
  naive_query : timing;  (** Algebra plan, once per instance *)
  bundle_build : timing;  (** Bundle.of_stochastic_table *)
  interp_query : timing;  (** Bundle.query ~impl:`Interpreter *)
  kernel_query : timing;  (** Bundle.query ~impl:`Kernel *)
  kernel_select : timing;  (** the plan's Bundle.select sweep alone *)
  kernel_extend : timing;  (** its Bundle.extend sweep, over the selection *)
  kernel_aggregate : timing;  (** its Bundle.aggregate sweep, over the extension *)
  identical : bool;
      (** all three sample sets bit-identical, and the three separate
          kernel sweeps agree with the fused query *)
}

val run : ?domains:int -> rows:int -> reps:int -> seed:int -> unit -> result
(** Execute the benchmark ([domains] > 1 runs bundle construction and the
    kernel query over a domain pool; results stay bit-identical). *)

val gate : result -> (unit, string) Result.t
(** The acceptance gate shared by the bench harness, [mde_cli
    bundle-bench] and CI: the three paths bit-identical, the columnar
    query at least 3x the interpreted query's throughput and at least
    5x less allocation. [Error] carries a one-line reason. *)

val print : result -> unit
(** Human-readable table on stdout. *)

val emit : ?file:string -> ?domains:int -> seed:int -> result -> string
(** Append one entry to [BENCH_bundle.json] (via {!Mde_bench_emit});
    returns the path written. Every timing is also reported as cells
    (rows × reps) per second, the separate kernel sweeps included. *)
