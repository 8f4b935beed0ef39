let threads_sweep = [ 1; 2; 4; 8; 16; 32; 64 ]

let threadtest threads =
  { Workloads.Threadtest.iterations = 4; objects = max 100 (8000 / threads); size = 64 }

let prodcon threads =
  let pairs = max 1 (threads / 2) in
  { Workloads.Prodcon.per_pair = max 500 (16_000 / pairs); size = 64; queue_cap = 64 }

let shbench threads =
  {
    Workloads.Shbench.iterations = max 250 (16_000 / threads);
    window = 16;
    min_size = 64;
    max_size = 1000;
  }

let larson_small threads =
  {
    Workloads.Larson.slots = 1000;
    ops = max 500 (32_000 / threads);
    min_size = 64;
    max_size = 256;
    cross_frac = 0.2;
  }

let larson_large threads =
  {
    Workloads.Larson.slots = max 4 (256 / threads);
    ops = max 50 (3200 / threads);
    min_size = 32 * 1024;
    max_size = 512 * 1024;
    cross_frac = 0.2;
  }

let dbmstest threads =
  {
    Workloads.Dbmstest.objects = max 8 (256 / threads);
    iterations = 3;
    warmup = 3;
    min_size = 32 * 1024;
    max_size = 512 * 1024;
    delete_frac = 0.9;
  }
