(* The optimizer over the seed's reference phases.  Everything else —
   alias analysis, eliminations, the fallback ladder, allocation,
   emission, profiling — is the product's single copy. *)

include Opt.Optimizer.Make (struct
  let depgraph = Depgraph.build
  let hazards = Hazards.build
  let schedule_core = List_sched.schedule_core_reference
end)
