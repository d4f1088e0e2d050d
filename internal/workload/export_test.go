package workload

// SetPoisonRecycled switches poisoning of recycled requests and timer
// records on or off for the whole package; tests that turn it on must turn
// it off again and must not run in parallel with other tests.
func SetPoisonRecycled(on bool) { poisonRecycled = on }
