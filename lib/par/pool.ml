(* The pool hands one job at a time to a fixed set of worker domains.
   Publication protocol: the caller installs the job and bumps [epoch]
   under the mutex, workers wake on the condition variable, run their
   statically assigned shards ([s mod size]) outside the lock, and count
   themselves off via [remaining]; the caller runs the slot-0 shards
   itself and then waits for [remaining] to reach zero. No atomics beyond
   the mutex — every shared-state transition happens under [mutex]. *)

module Obs = Stratrec_obs

type job = {
  body : int -> unit;
  shards : int;
  published : float;  (* wall time of publication; 0. unless profiling *)
  mutable remaining : int;  (* workers still inside this job *)
  mutable failure : (exn * Printexc.raw_backtrace) option;  (* first recorded *)
}

(* Per-slot utilization. Each slot is written only by its own domain
   while a job runs and read by the caller after the pool quiesces (the
   job-completion mutex hand-off orders the accesses), so no atomics are
   needed. [tasks] counts always; the clock reads behind [busy_seconds]
   and [queue_wait_seconds] only happen while [profiling] is set, so the
   default run pays no gettimeofday per shard. *)
type slot = {
  mutable tasks : int;
  mutable busy_seconds : float;
  mutable wait_seconds : float;
}

type domain_stats = { tasks : int; busy_seconds : float; queue_wait_seconds : float }

type t = {
  domains : int;
  mutex : Mutex.t;
  wake : Condition.t;  (* workers: a new epoch or shutdown *)
  quiet : Condition.t;  (* caller: all workers done with the job *)
  slots : slot array;  (* one per domain, caller = slot 0 *)
  mutable profiling : bool;
  mutable epoch : int;
  mutable job : job option;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

let size t = t.domains

let record_failure t job exn =
  let bt = Printexc.get_raw_backtrace () in
  Mutex.lock t.mutex;
  (match job.failure with
  | None -> job.failure <- Some (exn, bt)
  | Some _ -> ());
  Mutex.unlock t.mutex

let run_shards t job ~slot =
  (* Round-robin static assignment: slot w runs shards w, w + size, ... *)
  let stats = t.slots.(slot) in
  try
    let s = ref slot in
    while !s < job.shards do
      if t.profiling then begin
        let started = Obs.Registry.wall_clock () in
        job.body !s;
        stats.busy_seconds <-
          stats.busy_seconds +. Float.max 0. (Obs.Registry.wall_clock () -. started)
      end
      else job.body !s;
      stats.tasks <- stats.tasks + 1;
      s := !s + t.domains
    done
  with exn -> record_failure t job exn

let worker t ~slot =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    while (not t.stopped) && t.epoch = !seen do
      Condition.wait t.wake t.mutex
    done;
    if t.stopped then Mutex.unlock t.mutex
    else begin
      seen := t.epoch;
      let job =
        match t.job with
        | Some job -> job
        | None -> assert false (* the epoch only advances with a job installed *)
      in
      Mutex.unlock t.mutex;
      if t.profiling then begin
        let slot_stats = t.slots.(slot) in
        slot_stats.wait_seconds <-
          slot_stats.wait_seconds
          +. Float.max 0. (Obs.Registry.wall_clock () -. job.published)
      end;
      run_shards t job ~slot;
      Mutex.lock t.mutex;
      job.remaining <- job.remaining - 1;
      if job.remaining = 0 then Condition.broadcast t.quiet;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()

let shutdown t =
  Mutex.lock t.mutex;
  t.stopped <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let create ~domains =
  if domains < 1 then invalid_arg "Stratrec_par.Pool.create: domains must be >= 1";
  let t =
    {
      domains;
      mutex = Mutex.create ();
      wake = Condition.create ();
      quiet = Condition.create ();
      slots =
        Array.init domains (fun _ -> { tasks = 0; busy_seconds = 0.; wait_seconds = 0. });
      profiling = false;
      epoch = 0;
      job = None;
      stopped = false;
      workers = [];
    }
  in
  (* Spawn one worker at a time: when the runtime refuses one (it caps
     the number of live domains), the workers already running are
     stopped and joined before the failure propagates. *)
  (try
     for slot = 1 to domains - 1 do
       t.workers <- Domain.spawn (fun () -> worker t ~slot) :: t.workers
     done
   with exn ->
     let bt = Printexc.get_raw_backtrace () in
     shutdown t;
     Printexc.raise_with_backtrace exn bt);
  t

let set_profiling t on = t.profiling <- on
let profiling t = t.profiling

let reset_stats t =
  Array.iter
    (fun (s : slot) ->
      s.tasks <- 0;
      s.busy_seconds <- 0.;
      s.wait_seconds <- 0.)
    t.slots

let stats t =
  Array.map
    (fun (s : slot) ->
      { tasks = s.tasks; busy_seconds = s.busy_seconds; queue_wait_seconds = s.wait_seconds })
    t.slots

let export t ~metrics =
  let set name v = Obs.Registry.set (Obs.Registry.gauge metrics name) v in
  let tasks = Array.fold_left (fun acc (s : slot) -> acc + s.tasks) 0 t.slots in
  let busy = Array.fold_left (fun acc (s : slot) -> acc +. s.busy_seconds) 0. t.slots in
  let wait = Array.fold_left (fun acc (s : slot) -> acc +. s.wait_seconds) 0. t.slots in
  let max_busy =
    Array.fold_left (fun acc (s : slot) -> Float.max acc s.busy_seconds) 0. t.slots
  in
  set "par.pool_domains" (float_of_int t.domains);
  set "par.tasks_run" (float_of_int tasks);
  set "par.busy_seconds" busy;
  set "par.queue_wait_seconds" wait;
  (* Max-over-mean busy time: 1.0 is a perfectly balanced shard plan,
     [domains] is one domain doing all the work. 0 when nothing ran. *)
  set "par.shard_imbalance_ratio"
    (if busy > 0. then max_busy /. (busy /. float_of_int t.domains) else 0.);
  Array.iteri
    (fun i (s : slot) ->
      set (Printf.sprintf "par.domain%d.tasks_run" i) (float_of_int s.tasks);
      set (Printf.sprintf "par.domain%d.busy_seconds" i) s.busy_seconds;
      set (Printf.sprintf "par.domain%d.queue_wait_seconds" i) s.wait_seconds)
    t.slots

let run t ~shards body =
  if shards < 0 then invalid_arg "Stratrec_par.Pool.run: shards must be >= 0";
  if shards = 0 then ()
  else if t.domains = 1 || shards = 1 then begin
    let stats = t.slots.(0) in
    for s = 0 to shards - 1 do
      if t.profiling then begin
        let started = Obs.Registry.wall_clock () in
        body s;
        stats.busy_seconds <-
          stats.busy_seconds +. Float.max 0. (Obs.Registry.wall_clock () -. started)
      end
      else body s;
      stats.tasks <- stats.tasks + 1
    done
  end
  else begin
    Mutex.lock t.mutex;
    if t.stopped then begin
      Mutex.unlock t.mutex;
      invalid_arg "Stratrec_par.Pool.run: pool is shut down"
    end;
    (match t.job with
    | Some _ ->
        Mutex.unlock t.mutex;
        invalid_arg "Stratrec_par.Pool.run: pool is busy (pools are not reentrant)"
    | None -> ());
    let job =
      {
        body;
        shards;
        published = (if t.profiling then Obs.Registry.wall_clock () else 0.);
        remaining = t.domains - 1;
        failure = None;
      }
    in
    t.job <- Some job;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    run_shards t job ~slot:0;
    Mutex.lock t.mutex;
    while job.remaining > 0 do
      Condition.wait t.quiet t.mutex
    done;
    t.job <- None;
    Mutex.unlock t.mutex;
    match job.failure with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ()
  end

(* Process-wide pools by size, grown on demand and never shut down — the
   "fixed pool reused across calls" the batch entry points lean on. *)

let shared_mutex = Mutex.create ()
let shared_pools : (int, t) Hashtbl.t = Hashtbl.create 4

let shared ~domains =
  if domains < 1 then invalid_arg "Stratrec_par.Pool.shared: domains must be >= 1";
  Mutex.protect shared_mutex (fun () ->
      match Hashtbl.find_opt shared_pools domains with
      | Some pool -> pool
      | None ->
          let pool = create ~domains in
          Hashtbl.add shared_pools domains pool;
          pool)
