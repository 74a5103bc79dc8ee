// Package faultinject is a chaos HTTP proxy for the cluster conformance
// plane. A Proxy is an httputil.ReverseProxy in front of one worker
// daemon that deals every request the next entry of one fixed fault
// cycle — connection resets, response stalls, truncated bodies, dropped
// trailers, 503s and a pair of 429s among pass-throughs — while counting
// every fault it deals. The cycle is constant; a seed only chooses where
// in it a proxy starts, so the same requests always meet the same faults
// and no random draw can cluster them into a worker ejection.
// Pass-throughs keep their streaming body and HTTP trailers intact: the
// proxy reads upstream through a 64 KiB buffer, as the typed client
// does, so a traced worker's long report trailer crosses it whole.
// The conformance harness routes a loopback cluster through these
// proxies and requires that generated pipelines still produce output
// byte-identical to the serial oracle, with a nonzero fault count as
// proof the run was actually adversarial.
package faultinject

// Fault names one injectable failure mode.
type Fault string

// The injectable failure modes.
const (
	// FaultNone passes the request through untouched.
	FaultNone Fault = "none"
	// FaultReset closes the client connection before any response bytes.
	FaultReset Fault = "reset"
	// FaultStall holds the response body mid-stream for 400 ms, then
	// completes it normally — a straggler, not a failure.
	FaultStall Fault = "stall"
	// FaultTruncate streams a prefix of the response body, then severs
	// the connection mid-chunk.
	FaultTruncate Fault = "truncate"
	// FaultDropTrailer streams the full body but withholds the HTTP
	// trailers (the worker's execution report).
	FaultDropTrailer Fault = "drop-trailer"
	// FaultError503 answers 503 without contacting the worker.
	FaultError503 Fault = "error-503"
	// FaultBusy429 answers 429 with a Retry-After hint without contacting
	// the worker.
	FaultBusy429 Fault = "busy-429"
)

// cycle is the fault sequence every proxy deals, one entry per request,
// wrapping around. Its 24 entries hold seven faults — every kind once
// and the 429 twice in a row, load shedding that outlasts one request —
// so 29% of requests fail or stall. Apart from the 429 pair, faults are
// at least three entries apart, so no four consecutive requests meet
// more than two faults: the coordinator ejects a worker after three
// failures in a row, and the cycle alone never gets it there. The
// faults sit at distinct positions modulo 8, so proxies started a third
// of the cycle apart never deal a fault on the same step.
var cycle = []Fault{
	FaultNone, FaultNone, FaultReset, FaultNone, FaultNone, FaultStall,
	FaultNone, FaultNone, FaultBusy429, FaultBusy429, FaultNone, FaultNone,
	FaultNone, FaultNone, FaultTruncate, FaultNone, FaultNone, FaultNone,
	FaultNone, FaultError503, FaultNone, FaultNone, FaultNone, FaultDropTrailer,
}
