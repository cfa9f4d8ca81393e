(* Sequential replay of captured requests through the reference
   optimizer, in the shape of [Exec.Translate.replay]'s result. *)

let replay ~config requests =
  let t0 = Sched.Profile.now () in
  let profile = Sched.Profile.create () in
  let latency = Vliw.Config.latency config in
  let artifacts =
    List.map
      (fun r ->
        Exec.Translate.artifact_of
          (Optimizer.run_request ~issue_width:config.Vliw.Config.issue_width
             ~mem_ports:config.Vliw.Config.mem_ports ~latency ~profile r))
      requests
  in
  {
    Exec.Translate.artifacts;
    profile;
    wall_seconds = Sched.Profile.now () -. t0;
  }
