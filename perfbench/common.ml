(* Shared plumbing of the benchmark: the clock, summary statistics, the
   span recorder behind the traced run, and metric records. *)

(* The nanosecond monotonic clock, in seconds. [Unix.gettimeofday] has
   1 us resolution, which reads a cache hit as 0. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let nproc () = Domain.recommended_domain_count ()

(* Load comes from this one process, on at most two domains. *)
let domains () = max 1 (min 2 (nproc ()))

(* Nearest-rank percentile, [q] in [0, 100]; 0 for an empty sample, so a
   run that serves nothing still reports. *)
let percentile xs q =
  if Array.length xs = 0 then 0. else Mde.Serve.Workload.percentile xs (q /. 100.)

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let median xs = percentile xs 50.

(* Top of the major heap so far, in MiB. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

(* A settled heap before every timed phase, so one phase's garbage is not
   collected on the next one's clock. *)
let settle () = Gc.full_major ()

(* {1 Metrics} *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

(* Set-up cost is the median of several set-ups spread over the run, so
   a burst of host contention at one moment does not set the figure. *)
let setup_metric times =
  let times = Array.of_list times in
  Printf.eprintf "perfbench: set-up times (s):%s\n%!"
    (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %.4f") times)));
  metric ~samples:(Array.length times) "setup_s" "s" (median times)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** every correctness check, by name *)
  unit_cost : float;  (** busy seconds per unit of work, for the tracing overhead *)
  metrics : metric list;
}

(* {1 Spans}

   The traced run records a span around each call the benchmark makes
   into a library layer. Spans live in preallocated arrays and are
   written out when the run ends; a span's parent is the span open when
   it started, so self time (duration minus children) and the time no
   layer accounts for come straight from the buffer. *)
module Trace = struct
  let capacity = 400_000
  let on = ref false
  let names = Array.make capacity ""
  let starts = Array.make capacity 0.
  let stops = Array.make capacity 0.
  let parents = Array.make capacity (-1)
  let count = ref 0
  let dropped = ref 0
  let open_ = ref (-1)

  let reset () =
    count := 0;
    dropped := 0;
    open_ := -1

  let span name f =
    if not !on then f ()
    else if !count >= capacity then begin
      incr dropped;
      f ()
    end
    else begin
      let id = !count in
      incr count;
      names.(id) <- name;
      parents.(id) <- !open_;
      open_ := id;
      starts.(id) <- now ();
      match f () with
      | x ->
        stops.(id) <- now ();
        open_ := parents.(id);
        x
      | exception e ->
        stops.(id) <- now ();
        open_ := parents.(id);
        raise e
    end

  let duration i = stops.(i) -. starts.(i)

  (* Self time of every span: its duration minus its children's. *)
  let self_times () =
    let self = Array.init !count duration in
    for i = 0 to !count - 1 do
      let p = parents.(i) in
      if p >= 0 then self.(p) <- self.(p) -. duration i
    done;
    self

  (* Durations of every span called [name], in seconds. *)
  let durations name =
    let acc = ref [] in
    for i = !count - 1 downto 0 do
      if names.(i) = name then acc := duration i :: !acc
    done;
    Array.of_list !acc

  (* Share of root-span time that no child span accounts for. *)
  let unattributed_ratio () =
    let self = self_times () in
    let total = ref 0. and unattributed = ref 0. in
    for i = 0 to !count - 1 do
      if parents.(i) < 0 then begin
        total := !total +. duration i;
        unattributed := !unattributed +. self.(i)
      end
    done;
    if !total > 0. then !unattributed /. !total else 0.

  (* Chrome trace-event JSON ("X" complete events, microseconds), which
     Perfetto and chrome://tracing load. *)
  let write path =
    let self = self_times () in
    let t0 = if !count > 0 then starts.(0) else 0. in
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[\n";
    for i = 0 to !count - 1 do
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_us\":%.3f}}\n"
        (if i = 0 then "" else ",")
        names.(i)
        ((starts.(i) -. t0) *. 1e6)
        (duration i *. 1e6)
        (self.(i) *. 1e6)
    done;
    Printf.fprintf oc "],\"otherData\":{\"spans\":%d,\"dropped\":%d}}\n" !count !dropped;
    close_out oc
end

let span = Trace.span

(* Run one timed phase, recording spans only when [traced]. *)
let measure ~traced f =
  Trace.reset ();
  Trace.on := traced;
  Fun.protect ~finally:(fun () -> Trace.on := false) f

(* [timed_setup f] runs one set-up [f] untraced, after [collect] (by
   default [settle]), and returns its result with its wall time. *)
let timed_setup ?(collect = settle) f =
  collect ();
  let traced = !Trace.on in
  Trace.on := false;
  let t0 = now () in
  let x = Fun.protect ~finally:(fun () -> Trace.on := traced) f in
  (x, now () -. t0)
