(* The serving workload: an open-loop arrival stream against the 2-shard
   demo front ([Demo.front]) through the public [Target.submit] /
   [Target.drain], with latency counted from each request's scheduled
   arrival. *)

open Common
module Serve = Mde.Serve
module Server = Serve.Server
module Shard = Serve.Shard
module Target = Serve.Target
module Rng = Mde.Prob.Rng

let shards = 2
let rows = 60

(* The offered rate is an absolute number, chosen once against the
   capacity measured on a 2-vCPU x86-64 virtual machine (see README.md),
   so a parent and a change face the same load. *)
let rate = 250.

(* A request counts as goodput when it is answered within this limit. *)
let limit_ms = 50.

(* Uniform picks over far more templates than the front caches (40x its
   two 256-entry caches), so almost every request misses and executes. *)
let templates = 20_000
let cache_capacity = 256

(* Set-up requests, from a range of templates the run never picks. *)
let warm = 300

(* The demo catalog with the bundle templates addressed to the federated
   "sbp_any" name, so the federation path runs under load. *)
let catalog () =
  Array.map
    (fun (r : Server.request) ->
      if r.Server.model = "sbp_bundle" then { r with Server.model = "sbp_any" } else r)
    (Serve.Demo.catalog (templates + warm))

(* The generated input: [n] arrivals spread as a Poisson process
   conditioned on its count (sorted uniform times over the segment), each
   picking a template uniformly within its request class. Fixing the
   count, and the class mix to one of each of the catalog's five classes
   in every five arrivals, keeps the offered load identical across seeds;
   free picks moved the MCDB share, and with it the median, by a few
   percent from seed to seed. *)
let classes = 5

let schedule rng ~seconds =
  let n = max 1 (int_of_float (rate *. seconds)) in
  let times = Array.init n (fun _ -> Rng.float rng *. seconds) in
  Array.sort Float.compare times;
  let picks = Array.make n 0 in
  let order = Array.init classes Fun.id in
  for i = 0 to n - 1 do
    if i mod classes = 0 then
      (* A fresh shuffle of the classes for every block. *)
      for j = classes - 1 downto 1 do
        let k = Rng.int rng (j + 1) in
        let t = order.(j) in
        order.(j) <- order.(k);
        order.(k) <- t
      done;
    picks.(i) <- order.(i mod classes) + (classes * Rng.int rng (templates / classes))
  done;
  (times, picks)

(* The front's pool runs on one domain. A batch holds one or two
   requests on average, so a second domain adds little parallel work but
   stop-the-world synchronisation, which made tail latency several times
   noisier from run to run on a 2-core machine. *)
let pool = lazy (Mde.Par.Pool.create ~domains:1 ())

let make_front catalog =
  let front =
    Serve.Demo.front ~pool:(Lazy.force pool) ~clock:now ~cache_capacity ~rows
      ~scheduler:{ Serve.Scheduler.queue_capacity = 8; batch_size = 8 }
      ~shards ()
  in
  let target = Target.of_shard front in
  (* Warm-up trains the federation probes, class statistics and pool
     crossovers without caching anything the run will ask for. *)
  let i = ref 0 in
  while !i < warm do
    let upto = min warm (!i + 32) in
    for j = !i to upto - 1 do
      ignore (Target.submit target catalog.(templates + j))
    done;
    ignore (Target.drain target);
    i := upto
  done;
  (front, target)

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  admission_rejections : int;
  completed : int;
  batches : int;
  failed : int;
  abandoned : int;
  shed : int;
  routed : int array;
  served : int;
  dropped : int;
  pool : Mde.Par.Pool.stats;
}

let counters front target =
  let s = Shard.stats front in
  let sum f = Array.fold_left (fun acc sv -> acc + f sv) 0 s.Shard.servers in
  let ts = Target.stats target in
  {
    hits = sum (fun sv -> sv.Server.cache.Serve.Cache.hits);
    misses = sum (fun sv -> sv.Server.cache.Serve.Cache.misses);
    evictions = sum (fun sv -> sv.Server.cache.Serve.Cache.evictions);
    admission_rejections = sum (fun sv -> sv.Server.cache.Serve.Cache.admission_rejections);
    completed = sum (fun sv -> sv.Server.scheduler.Serve.Scheduler.completed);
    batches = sum (fun sv -> sv.Server.scheduler.Serve.Scheduler.batches);
    failed = sum (fun sv -> sv.Server.scheduler.Serve.Scheduler.failed);
    abandoned = sum (fun sv -> sv.Server.scheduler.Serve.Scheduler.abandoned);
    shed = Array.fold_left ( + ) 0 s.Shard.shed;
    routed = Array.copy s.Shard.routed;
    served = ts.Target.served;
    dropped = ts.Target.dropped;
    pool = Mde.Par.Pool.stats (Lazy.force pool);
  }

type run = {
  n : int;
  scheduled : float array;  (** absolute scheduled arrival *)
  submitted : float array;  (** when the driver called submit *)
  accepted : float array;  (** when submit returned *)
  drain_start : float array;  (** start of the drain that delivered it *)
  delivered : float array;  (** when that drain returned *)
  responses : Server.response option array;
  shed : int;
  unknown_ids : int;  (** delivered ids the driver never issued *)
  duplicates : int;  (** ids delivered twice *)
  lost : int;  (** accepted ids never delivered *)
  drain_errors : int;
  busy : float;  (** driver time spent submitting and draining *)
}

(* The open-loop driver. Arrivals are submitted when their scheduled time
   has come, whether or not earlier ones finished; a drain blocks the
   driver, so arrivals that fall due meanwhile are submitted late, and
   their latency, counted from the schedule, includes that wait. *)
let drive front target catalog (times, picks) =
  let n = Array.length times in
  let nan_arr () = Array.make n nan in
  let scheduled = nan_arr () and submitted = nan_arr () and accepted = nan_arr () in
  let drain_start = nan_arr () and delivered = nan_arr () in
  let responses = Array.make n None in
  let ids = Hashtbl.create 1024 in
  let shed = ref 0 and unknown = ref 0 and dup = ref 0 and errors = ref 0 and busy = ref 0. in
  let outstanding = ref 0 and next = ref 0 and stalled = ref false in
  let t0 = now () +. 1e-3 in
  Array.iteri (fun i t -> scheduled.(i) <- t0 +. t) times;
  while (!next < n || !outstanding > 0) && not !stalled do
    let due () = !next < n && scheduled.(!next) <= now () in
    if due () || !outstanding > 0 then begin
      let tick = now () in
      span "driver.tick" (fun () ->
          while due () do
            let i = !next in
            incr next;
            let request = catalog.(picks.(i)) in
            submitted.(i) <- now ();
            if !Trace.on then ignore (span "shard.route" (fun () -> Shard.shard_of front request));
            match span "target.submit" (fun () -> Target.submit target request) with
            | `Queued id ->
              accepted.(i) <- now ();
              Hashtbl.replace ids id i;
              incr outstanding
            | `Dropped -> incr shed
          done;
          if !outstanding > 0 then begin
            let ds = now () in
            match span "target.drain" (fun () -> Target.drain target) with
            | out ->
              let de = now () in
              if out = [] && !next >= n then stalled := true;
              List.iter
                (fun (id, resp) ->
                  match Hashtbl.find_opt ids id with
                  | None -> incr unknown
                  | Some i ->
                    if responses.(i) <> None then incr dup
                    else begin
                      responses.(i) <- Some resp;
                      drain_start.(i) <- ds;
                      delivered.(i) <- de;
                      decr outstanding
                    end)
                out
            | exception _ -> incr errors
          end);
      busy := !busy +. (now () -. tick)
    end
  done;
  let lost = ref 0 in
  Array.iteri (fun i a -> if (not (Float.is_nan a)) && responses.(i) = None then incr lost) accepted;
  {
    n;
    scheduled;
    submitted;
    accepted;
    drain_start;
    delivered;
    responses;
    shed = !shed;
    unknown_ids = !unknown;
    duplicates = !dup;
    lost = !lost;
    drain_errors = !errors;
    busy = !busy;
  }

let latencies_ms r =
  let acc = ref [] in
  for i = r.n - 1 downto 0 do
    if r.responses.(i) <> None then acc := ((r.delivered.(i) -. r.scheduled.(i)) *. 1e3) :: !acc
  done;
  Array.of_list !acc

(* Every served, non-degraded answer must equal, bit for bit, what a
   single [Server] answers for the same request (federated names replay
   on their primary backend). [responses.(i)] answers template
   [picks.(i)]. *)
let replay_identical catalog picks responses =
  let oracle = Serve.Demo.server ~rows () in
  let memo = Hashtbl.create 1024 in
  let ok = ref true and compared = ref 0 in
  Array.iteri
    (fun i -> function
      | Some (resp : Server.response) when not resp.Server.degraded ->
        let k = picks.(i) in
        let expected =
          match Hashtbl.find_opt memo k with
          | Some e -> e
          | None ->
            let req = catalog.(k) in
            let req =
              if req.Server.model = "sbp_any" then { req with Server.model = "sbp_bundle" } else req
            in
            let e =
              match Server.serve oracle req with `Served e -> Some e | `Rejected -> None
            in
            Hashtbl.replace memo k e;
            e
        in
        incr compared;
        (match expected with
        | Some e ->
          if
            not
              (Int64.bits_of_float e.Server.value = Int64.bits_of_float resp.Server.value
              && e.Server.ci95 = resp.Server.ci95
              && e.Server.reps_executed = resp.Server.reps_executed)
          then ok := false
        | None -> ok := false)
      | _ -> ())
    responses;
  (!ok, !compared)

(* Mean execution time per request kind, replayed through
   [Shard.sample_batch] over a sample of the requests the run served. *)
let exec_ms front catalog picks r =
  let per_kind = 20 in
  let tbl = Hashtbl.create 4 in
  Array.iteri
    (fun i o ->
      if o <> None then begin
        let req = catalog.(picks.(i)) in
        let kind, reps =
          match req.Server.kind with
          | Server.Mcdb_mean { reps } -> (Some "mcdb_mean", reps)
          | Server.Mcdb_tail { reps; _ } -> (Some "mcdb_tail", reps)
          | Server.Chain_mean { reps; _ } -> (Some "chain_mean", reps)
          | Server.Composite_estimate _ -> (None, 0)
        in
        match kind with
        | Some k ->
          let l = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
          if List.length l < per_kind then Hashtbl.replace tbl k ((req, reps) :: l)
        | None -> ()
      end)
    r.responses;
  List.map
    (fun k ->
      let reqs = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
      let times =
        List.map
          (fun (req, reps) ->
            let t0 = now () in
            ignore (Shard.sample_batch front req ~lo:0 ~hi:reps);
            (now () -. t0) *. 1e3)
          reqs
      in
      metric ~samples:(List.length times) ("server.exec_ms." ^ k) "ms" (mean (Array.of_list times)))
    [ "mcdb_mean"; "mcdb_tail"; "chain_mean" ]

(* The stream runs in segments of about this many seconds, each on a
   fresh front after [setups_per_segment] set-ups timed on their own, so
   the set-up samples spread over the run like the stream's. *)
let segment_seconds = 5.
let setups_per_segment = 2

type segment = {
  picks : int array;
  r : run;
  before : counters;  (** before the stream *)
  after : counters;  (** after the stream *)
  final : counters;  (** after shutdown *)
  banked : (int * Server.response) list;  (** answers shutdown still held *)
}

(* Requests of a segment whose execution raised or that shutdown abandoned. *)
let seg_failed sg = sg.final.failed - sg.before.failed + (sg.final.abandoned - sg.before.abandoned)

let run ~seed ~seconds ~traced =
  let catalog = catalog () in
  let rng = Rng.create ~seed () in
  let n_segments = max 1 (int_of_float (Float.round (seconds /. segment_seconds))) in
  let seg_seconds = seconds /. float_of_int n_segments in
  let setups = ref [] in
  let set_up () =
    let front, t = timed_setup (fun () -> make_front catalog) in
    setups := t :: !setups;
    front
  in
  let exec = ref [] in
  let segment k =
    for _ = 2 to setups_per_segment do
      ignore (Shard.shutdown (fst (set_up ())))
    done;
    let front, target = set_up () in
    let ((_, picks) as input) = schedule rng ~seconds:seg_seconds in
    settle ();
    let before = counters front target in
    let r = drive front target catalog input in
    let after = counters front target in
    if traced && k = n_segments - 1 then exec := exec_ms front catalog picks r;
    (* Shutting down surfaces anything accepted but never run as abandoned. *)
    let banked = Shard.shutdown front in
    { picks; r; before; after; final = counters front target; banked }
  in
  let segs = measure ~traced (fun () -> List.init n_segments segment) in
  let heap = peak_heap_mb () in
  let runs = List.map (fun sg -> sg.r) segs in
  let lat = Array.concat (List.map latencies_ms runs) in
  let served_n = Array.length lat in
  let attempted = List.fold_left (fun n r -> n + r.n) 0 runs in
  let busy = List.fold_left (fun b r -> b +. r.busy) 0. runs in
  let good = Array.fold_left (fun acc l -> if l <= limit_ms then acc + 1 else acc) 0 lat in
  (* The change of a counter over the streams, summed over segments. *)
  let d f = List.fold_left (fun acc sg -> acc + f sg.after - f sg.before) 0 segs in
  let failed = List.fold_left (fun acc sg -> acc + seg_failed sg) 0 segs in
  let layers =
    if not traced then []
    else begin
      let us name = Array.map (fun s -> s *. 1e6) (Trace.durations name) in
      let route = us "shard.route" and submit = us "target.submit" in
      let drain = Array.map (fun s -> s *. 1e3) (Trace.durations "target.drain") in
      let per_request f =
        Array.concat
          (List.map
             (fun r ->
               let acc = ref [] in
               for i = r.n - 1 downto 0 do
                 match f r i with Some x -> acc := x :: !acc | None -> ()
               done;
               Array.of_list !acc)
             runs)
      in
      let lateness = per_request (fun r i -> Some ((r.submitted.(i) -. r.scheduled.(i)) *. 1e3)) in
      let waits =
        per_request (fun r i ->
            if r.responses.(i) <> None then Some ((r.drain_start.(i) -. r.accepted.(i)) *. 1e3)
            else None)
      in
      let routed = Array.init shards (fun i -> d (fun c -> c.routed.(i))) in
      let routed_mean = float_of_int (Array.fold_left ( + ) 0 routed) /. float_of_int shards in
      let ratio a b = if b > 0 then float_of_int a /. float_of_int b else 0. in
      let count name f = metric name "count" (float_of_int (d f)) in
      let steals c = Array.fold_left ( + ) 0 c.pool.Mde.Par.Pool.steals in
      [
        metric ~samples:(Array.length route) "shard.route_us" "us" (percentile route 50.);
        metric "shard.imbalance" "ratio"
          (if routed_mean > 0. then float_of_int (Array.fold_left max 0 routed) /. routed_mean
           else 0.);
        metric ~samples:(Array.length submit) "target.submit_us.p50" "us" (percentile submit 50.);
        metric ~samples:(Array.length submit) "target.submit_us.p99" "us" (percentile submit 99.);
        metric "cache.hit_ratio" "ratio"
          (ratio (d (fun c -> c.hits)) (d (fun c -> c.hits + c.misses)));
        count "cache.evictions" (fun c -> c.evictions);
        metric "cache.admit_reject_ratio" "ratio"
          (ratio (d (fun c -> c.admission_rejections)) (d (fun c -> c.misses)));
        metric ~samples:(Array.length waits) "scheduler.queue_wait_ms.p50" "ms"
          (percentile waits 50.);
        metric ~samples:(Array.length waits) "scheduler.queue_wait_ms.p99" "ms"
          (percentile waits 99.);
        metric "scheduler.batch_size" "count"
          (ratio (d (fun c -> c.completed)) (d (fun c -> c.batches)));
        count "scheduler.shed" (fun c -> c.shed);
        count "scheduler.failed" (fun c -> c.failed);
        metric ~samples:(Array.length drain) "server.drain_ms" "ms" (mean drain);
        count "pool.batches" (fun c -> c.pool.Mde.Par.Pool.batches);
        count "pool.seq_batches" (fun c -> c.pool.Mde.Par.Pool.seq_batches);
        count "pool.steals" steals;
        metric ~samples:attempted "driver.late_ms" "ms" (percentile lateness 99.);
      ]
      @ !exec
    end
  in
  let identical, compared =
    replay_identical catalog
      (Array.concat (List.map (fun sg -> sg.picks) segs))
      (Array.concat (List.map (fun r -> r.responses) runs))
  in
  let accounting =
    List.for_all
      (fun sg ->
        let r = sg.r in
        let served = Array.length (latencies_ms r) in
        r.unknown_ids = 0 && r.duplicates = 0 && r.lost = 0 && sg.banked = []
        && r.drain_errors = 0
        && r.n = served + r.shed + seg_failed sg
        && sg.after.served - sg.before.served = served
        && sg.after.dropped - sg.before.dropped = r.shed)
      segs
  in
  let checks =
    [ ("serve.replay_identical", identical && compared > 0); ("serve.accounting", accounting) ]
  in
  {
    correct = List.for_all snd checks;
    unit_cost = (if served_n > 0 then busy /. float_of_int served_n else 0.);
    attempted;
    failed;
    checks;
    metrics =
      [
        setup_metric !setups;
        metric ~samples:served_n "p50_ms" "ms" (percentile lat 50.);
        (* The 95th percentile: a host stall of a few hundred milliseconds
           delays about 1 % of a run's arrivals, which moved the 99th
           percentile by half in one run of five. *)
        metric ~samples:served_n "tail_ms" "ms" (percentile lat 95.);
        metric ~samples:served_n "work_per_s" "1/s"
          (if busy > 0. then float_of_int good /. busy else 0.);
        metric "peak_heap_mb" "MB" heap;
      ]
      @ layers;
  }
