(* Benchmark inputs: the strategy catalog the server loads and the
   stream of submit lines each workload sends, derived from the --seed.
   The server only ever sees these generated inputs. *)

module Model = Stratrec_model
module Rng = Stratrec_util.Rng

type workload = Adpar_cold | Batch_fit | Zipf_hot

let workloads = [ Adpar_cold; Batch_fit; Zipf_hot ]

let name = function
  | Adpar_cold -> "adpar-cold"
  | Batch_fit -> "batch-fit"
  | Zipf_hot -> "zipf-hot"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* n=1000 is the catalog size the ROADMAP asks for; ADPaR at n=1000
   costs ~19 ms/request, so the ADPaR-heavy workloads stay at n=200. *)
let catalog_size = function Batch_fit -> 1000 | Adpar_cold | Zipf_hot -> 200

let k = 2
let availability = 0.75

(* One batch is one epoch: the daemon's default --epoch-requests. *)
let batch = 8

(* zipf-hot interleaves a GET metrics and a GET health every this many
   submits, so the exposition read path sits beside Registry.incr. *)
let scrape_every = 64

(* Untimed warm-up requests. The triage cache holds 4096 entries shared
   by requirement rows and ADPaR captures: an adpar-cold request stores
   two, a batch-fit request one, so these counts fill it and the timed
   phase runs at its steady eviction rate. zipf-hot only needs its
   40-shape head resident and the session trace buffer full. *)
let warmup_requests = function
  | Adpar_cold -> 2560
  | Batch_fit -> 4608
  | Zipf_hot -> 1024

(* The catalog is the same for every --seed; the seed varies the request
   stream. Per-request ADPaR work differs by ~7% between random n=200
   catalogs, which would otherwise show as run-to-run spread. *)
let catalog_seed = 2020

let catalog w =
  Model.Workload.strategies (Rng.create catalog_seed) ~n:(catalog_size w)
    ~kind:Model.Workload.Uniform

let write_catalog ~path strategies =
  Model.Codec.save ~path (Model.Codec.catalog_to_json strategies)

(* Demanding thresholds: BatchStrat cannot satisfy them at W=0.75, so
   every request falls through to ADPaR. *)
let demanding rng =
  ( Rng.uniform rng ~lo:0.5 ~hi:1.,
    Rng.uniform rng ~lo:0. ~hi:0.6,
    Rng.uniform rng ~lo:0. ~hi:0.6 )

(* Lenient thresholds: every request has k feasible strategies and fits
   the workforce budget, so ADPaR never runs. *)
let lenient rng =
  ( Rng.uniform rng ~lo:0. ~hi:0.2,
    Rng.uniform rng ~lo:0.9 ~hi:1.,
    Rng.uniform rng ~lo:0.9 ~hi:1. )

let zipf_shapes = 40
let zipf_s = 1.1

(* zipf-hot sends batches picked uniformly from a pool of batches of
   Zipf-drawn shapes: every request still follows the Zipf law over the
   40 shapes, and the output check needs one Engine.run per pool batch
   instead of one per batch sent. *)
let zipf_pool = 256

let zipf_cdf () =
  let w = Array.init zipf_shapes (fun r -> 1. /. Float.pow (float_of_int (r + 1)) zipf_s) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc /. total)
    w

type stream = { draw_batch : unit -> (float * float * float) array; mutable next_id : int }

let stream ~seed w =
  let rng = Rng.create seed in
  let draw_batch =
    match w with
    | Adpar_cold -> fun () -> Array.init batch (fun _ -> demanding rng)
    | Batch_fit -> fun () -> Array.init batch (fun _ -> lenient rng)
    | Zipf_hot ->
        let shapes = Array.init zipf_shapes (fun _ -> demanding rng) in
        let cdf = zipf_cdf () in
        let rec rank u i = if i >= zipf_shapes - 1 || cdf.(i) >= u then i else rank u (i + 1) in
        let zipf () = shapes.(rank (Rng.float rng 1.) 0) in
        let pool = Array.init zipf_pool (fun _ -> Array.init batch (fun _ -> zipf ())) in
        fun () -> pool.(Rng.int rng zipf_pool)
  in
  { draw_batch; next_id = 1 }

(* Four decimals keep every threshold exact through the wire format;
   ids are unique over the whole run. *)
let line s (q, c, l) =
  let id = s.next_id in
  s.next_id <- id + 1;
  Printf.sprintf {|{"op":"submit","id":%d,"params":"%.4f,%.4f,%.4f","k":%d}|} id q c l k

let next_batch s = Array.map (line s) (s.draw_batch ())
