(* The closed loop over one connection: send a batch of 8 submits (one
   epoch), wait for all 8 [completed] lines, send the next. Requesters
   wait for their answers, so a closed loop is the honest load model; an
   open loop at a low rate would mostly measure the wait for an epoch to
   fill, which the daemon (no epoch timer) cannot shorten. *)

let fail = Client.fail

(* Position just past the first occurrence of [pat] in [s], if any. *)
let after s pat =
  let n = String.length s and m = String.length pat in
  let rec matches i j = j = m || (s.[i + j] = pat.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some (i + m) else go (i + 1) in
  go 0

let status line =
  match after line {|"status":"|} with
  | None -> ""
  | Some i -> String.sub line i (String.index_from line i '"' - i)

let id_of line =
  match after line {|"id":|} with
  | None -> None
  | Some i ->
      let j = ref i in
      while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub line i (!j - i))

(* Lineage carries wall-clock stage times: drop it before storing the
   line for the output check. *)
let strip_lineage line =
  match after line {|,"lineage":|} with
  | None -> line
  | Some i -> String.sub line 0 (i - String.length {|,"lineage":|}) ^ "}"

(* The daemon's own account of a request, admission to completion. *)
let server_seconds line =
  match after line {|"total_seconds":|} with
  | None -> fail "completed line without lineage: %s" line
  | Some i ->
      let j = ref i in
      while !j < String.length line && not (String.contains ",}" line.[!j]) do incr j done;
      float_of_string (String.sub line i (!j - i))

type floats = { mutable data : float array; mutable len : int }

let push v x =
  if v.len = Array.length v.data then begin
    let grown = Array.make (max 1024 (2 * v.len)) 0. in
    Array.blit v.data 0 grown 0 v.len;
    v.data <- grown
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

type phase = {
  mutable sent : int;
  mutable completed : int;
  mutable failed : int;
  latencies : floats;  (** seconds, submit written → completed read *)
  mutable outside_server : float;
      (** seconds, summed over completed requests: the client's latency
          minus the daemon's lineage total for the same request, i.e.
          socket I/O, line framing and parse/render around the daemon *)
}

let phase () =
  { sent = 0; completed = 0; failed = 0; latencies = { data = [||]; len = 0 }; outside_server = 0. }

type run = {
  conn : Client.conn;
  responses : (int, string) Hashtbl.t;  (** id → completed line, lineage stripped *)
  mutable batches : string array list;  (** every batch sent, newest first *)
  mutable submits : int;
  scrapes : bool;
}

let scrape r =
  Client.write_all r.conn "GET metrics\nGET health\n";
  let rec until_eof () = if Client.expect_line r.conn <> "# EOF" then until_eof () in
  until_eof ();
  let health = Client.expect_line r.conn in
  if status health <> "health" then fail "GET health answered: %s" health

(* One epoch: write the 8 submits at once, read until every id is
   answered and the epoch-closed line arrived. Anything but [completed]
   for a submit counts as failed. *)
let batch r p lines =
  r.batches <- lines :: r.batches;
  let sent_at = Client.now () in
  Client.write_all r.conn (String.concat "\n" (Array.to_list lines) ^ "\n");
  p.sent <- p.sent + Array.length lines;
  let answered = ref 0 and closed = ref false and failed = ref 0 in
  while not (!answered = Array.length lines && (!closed || !failed > 0)) do
    let line = Client.expect_line r.conn in
    match status line with
    | "accepted" -> ()
    | "epoch-closed" -> closed := true
    | "completed" ->
        (match id_of line with
        | Some id -> Hashtbl.replace r.responses id (strip_lineage line)
        | None -> fail "completed line without id: %s" line);
        let latency = r.conn.Client.stamp -. sent_at in
        push p.latencies latency;
        p.outside_server <- p.outside_server +. latency -. server_seconds line;
        p.completed <- p.completed + 1;
        incr answered
    | _ ->
        (* queue-full, quota-exceeded, overloaded, expired, error, ... *)
        Printf.eprintf "stratbench: submit not completed: %s\n%!" line;
        p.failed <- p.failed + 1;
        incr failed;
        incr answered
  done;
  r.submits <- r.submits + Array.length lines;
  if r.scrapes && r.submits mod Gen.scrape_every = 0 then scrape r

let warmup r stream ~requests =
  let p = phase () in
  for _ = 1 to requests / Gen.batch do
    batch r p (Gen.next_batch stream)
  done;
  p

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Host speed. The shared 2-vCPU VM this was tuned on changes speed by up to 2x
   over seconds to minutes: a fixed loop's time varies that much, in CPU
   time as much as in wall time, so the host runs slower rather than
   schedules less. No statistic inside one run removes a slow spell that
   outlasts the run. So the client times a fixed kernel of its own while
   the server waits for the next batch, and every timing figure is scaled
   to a host on which the kernel takes [reference_seconds] (about its
   time on that VM at full speed). The kernel is the benchmark's own
   code: a change to the program cannot move it. *)
let reference_seconds = 200e-6

let kernel () =
  let a = Array.init 512 (fun i -> Float.of_int ((i * 7919) land 1023)) in
  Array.sort Float.compare a;
  let h = Hashtbl.create 64 in
  Array.iteri
    (fun i x ->
      let key = i land 63 in
      Hashtbl.replace h key (x :: Option.value (Hashtbl.find_opt h key) ~default:[]))
    a;
  ignore (Sys.opaque_identity h)

let kernel_seconds () =
  let t0 = Client.now () in
  kernel ();
  Client.now () -. t0

(* How much slower than the reference the host runs now (>1: slower). *)
let slowdown kernels = median kernels /. reference_seconds
let host_slowdown () = slowdown (List.init 9 (fun _ -> kernel_seconds ()))

(* The timed phase is cut into chunks of [chunk_seconds], each scaled
   by its own slowdown: the median of the kernel times probed in it,
   one probe every [probe_every] seconds. *)
type chunk = {
  wall : float;  (** seconds, probes excluded *)
  server_cpu : float;
  first : int;  (** the chunk's latency samples are [first, last) *)
  last : int;
  slowdown : float;
}

let chunk_seconds = 0.5
let probe_every = 0.02

(* [cpu] reads the server's CPU seconds. *)
let timed r stream ~seconds ~cpu =
  let p = phase () in
  let chunks = ref [] and closed = ref 0 in
  let start = ref (Client.now (), cpu (), 0) in
  let kernels = ref [] and probing = ref 0. and last_probe = ref 0. in
  while float_of_int !closed *. chunk_seconds < seconds do
    batch r p (Gen.next_batch stream);
    if !kernels = [] || Client.now () -. !last_probe >= probe_every then begin
      let k = kernel_seconds () in
      kernels := k :: !kernels;
      probing := !probing +. k;
      last_probe := Client.now ()
    end;
    let t0, c0, first = !start in
    let t = Client.now () in
    if t -. t0 >= chunk_seconds then begin
      let c = cpu () and last = p.latencies.len in
      let chunk =
        { wall = t -. t0 -. !probing; server_cpu = c -. c0; first; last; slowdown = slowdown !kernels }
      in
      chunks := chunk :: !chunks;
      incr closed;
      start := (t, c, last);
      kernels := [];
      probing := 0.
    end
  done;
  (p, List.rev !chunks)

(* Nearest-rank quantile of a sorted, non-empty array. *)
let quantile_of a q =
  let last = Array.length a - 1 in
  a.(min last (int_of_float (Float.round (q *. float_of_int last))))

type figures = {
  samples : int;
  req_per_s : float;
  p50 : float;  (** seconds *)
  p99 : float;
  server_cpu_per_req : float;  (** seconds *)
}

(* Whole-phase figures over every request of the timed phase, so the
   server's own rare stalls stay in the p99. [scale c] divides a time
   taken in chunk [c]: its slowdown, or 1 for the raw figures. *)
let figures p chunks ~scale =
  let samples = p.latencies.len in
  let lat = Array.make samples 0. in
  List.iter
    (fun c ->
      for i = c.first to c.last - 1 do
        lat.(i) <- p.latencies.data.(i) /. scale c
      done)
    chunks;
  Array.sort Float.compare lat;
  let sum f = List.fold_left (fun acc c -> acc +. (f c /. scale c)) 0. chunks in
  let n = float_of_int samples in
  {
    samples;
    req_per_s = n /. sum (fun c -> c.wall);
    p50 = quantile_of lat 0.5;
    p99 = quantile_of lat 0.99;
    server_cpu_per_req = sum (fun c -> c.server_cpu) /. n;
  }

(* The final readiness probe: ready, no brownout, nothing queued. *)
let final_health r =
  Client.write_all r.conn "GET health\n";
  let line = Client.expect_line r.conn in
  let module Json = Stratrec_util.Json in
  match Json.of_string line with
  | Error e -> fail "GET health: %s" e
  | Ok j ->
      let field name = Json.member name j in
      let ok =
        field "state" = Some (Json.String "ready")
        && Option.bind (field "brownout_rung") Json.to_int = Some 0
        && Option.bind (field "queue_depth") Json.to_int = Some 0
      in
      if not ok then fail "final health is not ready/rung 0/queue 0: %s" line
