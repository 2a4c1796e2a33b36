open Pom_pipeline

let passes () =
  [
    Butil.locality_tiling_pass ~exclude_fused:true ();
    Passes.structural ();
  ]
