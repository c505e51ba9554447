(** Umbrella namespace: one [open Ripple] (or [Ripple.Pipeline.…]) gives
    access to the whole system.  Sub-library boundaries (and their
    documentation) live in [lib/<name>/*.mli]; this module only
    re-exports them under stable, short names. *)

(* Utilities *)
module Prng = Ripple_util.Prng
module Ring_queue = Ripple_util.Ring_queue
module Summary = Ripple_util.Summary
module Table = Ripple_util.Table
module Json = Ripple_util.Json

(* Program representation *)
module Addr = Ripple_isa.Addr
module Basic_block = Ripple_isa.Basic_block
module Program = Ripple_isa.Program
module Builder = Ripple_isa.Builder

(* Tracing *)
module Packet = Ripple_trace.Packet
module Pt = Ripple_trace.Pt
module Lbr = Ripple_trace.Lbr
module Bb_trace = Ripple_trace.Bb_trace

(* Workloads *)
module App_model = Ripple_workloads.App_model
module Cfg_gen = Ripple_workloads.Cfg_gen
module Executor = Ripple_workloads.Executor
module Apps = Ripple_workloads.Apps

(* Caches and replacement *)
module Geometry = Ripple_cache.Geometry
module Access = Ripple_cache.Access
module Access_stream = Ripple_cache.Access_stream
module Cache = Ripple_cache.Cache
module Cache_stats = Ripple_cache.Stats
module Policy = Ripple_cache.Policy
module Lru = Ripple_cache.Lru
module Random_policy = Ripple_cache.Random_policy
module Rrip = Ripple_cache.Rrip
module Ghrp = Ripple_cache.Ghrp
module Hawkeye = Ripple_cache.Hawkeye
module Belady = Ripple_cache.Belady
module Registry = Ripple_cache.Registry

(* Prefetchers *)
module Prefetcher = Ripple_prefetch.Prefetcher
module Nlp = Ripple_prefetch.Nlp
module Fdip = Ripple_prefetch.Fdip
module Rdip = Ripple_prefetch.Rdip
module Branch_pred = Ripple_prefetch.Branch_pred

(* Timing simulation *)
module Config = Ripple_cpu.Config
module Hierarchy = Ripple_cpu.Hierarchy
module Simulator = Ripple_cpu.Simulator

(* Observability: spans, metrics, Chrome-trace / OpenMetrics export *)
module Obs = Ripple_obs

(* The paper's contribution *)
module Eviction_window = Ripple_core.Eviction_window
module Cue_block = Ripple_core.Cue_block
module Injector = Ripple_core.Injector
module Pipeline = Ripple_core.Pipeline

(* Static verification of CFGs and injected invalidations *)
module Finding = Ripple_analysis.Finding
module Cfg = Ripple_analysis.Cfg
module Dominance = Ripple_analysis.Dominance
module Fixpoint = Ripple_analysis.Fixpoint
module Abs_cache = Ripple_analysis.Abs_cache
module Invalidation_check = Ripple_analysis.Invalidation_check
module Lint = Ripple_analysis.Lint

(* Experiment orchestration: parallel, resumable sweeps over the
   evaluation matrix *)
module Exp = Ripple_exp

(* Fault injection and the chaos harness *)
module Fault = Ripple_fault.Fault
module Chaos = Ripple_fault.Chaos

(* Continuous-profiling daemon: framed protocol, rolling windowed
   profiles, and the serve/push client-server pair *)
module Serve_protocol = Ripple_serve.Protocol
module Rolling = Ripple_serve.Rolling
module Session = Ripple_serve.Session
module Server = Ripple_serve.Server
module Serve_client = Ripple_serve.Client
