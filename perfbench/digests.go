package main

// defaultSeed is the seed used when --seed is not given.
const defaultSeed = 1

// recordedDigests are the Report.CSVDigest values of each sim workload's
// figure, recorded with the benchmark for seeds 0 through recordedSeeds
// (the figures' virtual times do not depend on the seed, so all of those
// seeds gave the same digest). A regeneration with one of these seeds
// must reproduce its digest exactly.
var recordedDigests = map[string]string{
	"sim-queue-deep": "04eff4ccfce9e2d8ad50fabc2c1474bd34955ae32dff052558c8eed32e2c49ec",
	"sim-table-crud": "2011b964a5afc5ad2cc72ffc0157b2db1144bfab37e36f73b3fd8e9d92fadc93",
}

const recordedSeeds = 10
