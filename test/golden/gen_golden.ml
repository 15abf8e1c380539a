(* Writes the goldens: test/data/plan_random.golden (every fixed
   random-circuit seed under every layout policy),
   test/data/plan_models.golden (every zoo model at its compiled policy)
   and test/data/compile_models.golden (every compile decision of
   Golden.compile_cases).

   Usage: dune exec test/golden/gen_golden.exe -- DIR *)

let write path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/data" in
  write
    (Filename.concat dir "plan_random.golden")
    (List.concat_map
       (fun seed ->
         List.map
           (fun policy -> Golden.line (Golden.random_key seed policy) (Golden.random_output seed policy))
           Chet_runtime.Executor.all_policies)
       Golden.random_seeds);
  write
    (Filename.concat dir "plan_models.golden")
    (List.map (fun spec -> Golden.line (Golden.model_key spec) (Golden.model_output spec)) Golden.models);
  write (Filename.concat dir "compile_models.golden") (List.map Golden.compile_line Golden.compile_cases)
