package server

import "hamlet/internal/core"

// This file is the wire half of the advisord service: the versioned JSON
// request/response schema for POST /v1/decide and GET /v1/datasets. The
// types deliberately do not reuse internal/core's structs on the wire —
// field names there are Go API, these are a protocol — so the JSON contract
// can stay frozen while the internals refactor.

// RequestSchemaVersion is the decide-API schema this build speaks. It
// follows the same single-major policy as the artifact schema
// (obs.SchemaVersion): breaking changes (renamed keys, changed units,
// changed status-code semantics) bump it; additive changes (new optional
// request keys, new response fields) do not. A request carrying a newer
// version than the server understands is refused with 400 rather than
// half-parsed; requests with v omitted (or 0) are taken as the current
// version, mirroring how artifact readers accept legacy v0.
//
// Schema v1 (current):
//
//	POST /v1/decide     body DecideRequest: v, requests[1..N] of
//	                    {dataset, scale?, seed?, rule?}; omitted scale,
//	                    seed, and rule fall back to the server defaults.
//	                    200 → DecideResponse, 400 → malformed body, empty
//	                    or oversized batch, bad scale/rule, or schema
//	                    mismatch; 404 → unknown dataset; 500 → generation
//	                    or decision failure. Errors are ErrorResponse.
//	                    A body is accepted or refused exactly as
//	                    json.Unmarshal into DecideRequest would take
//	                    it, and that grammar is the contract:
//	                    keys match case-insensitively (bytes.EqualFold
//	                    after unescaping), unknown keys are ignored, the
//	                    last of duplicate keys wins (a repeated
//	                    "requests" decodes element i over the element i
//	                    before it; [] or null starts afresh), null leaves
//	                    a field unchanged, v must be an integer and seed
//	                    an unsigned 64-bit integer (so -0 and 1.0 are
//	                    400s), scale a number in float64 range, nesting
//	                    at most 10000 deep, and only whitespace may
//	                    follow the object.
//	GET /v1/datasets    200 → DatasetsResponse: the resolvable catalog
//	                    plus the (dataset, scale, seed) keys already
//	                    resolved in the registry.
//	GET /healthz        200 while the process serves.
//	GET /readyz         200 once preloading finished, 503 before and
//	                    while draining.
const RequestSchemaVersion = 1

// DecideRequest is the POST /v1/decide body: a batch of 1..MaxBatch
// decision queries answered in one round trip. A single decision is a
// one-element batch.
type DecideRequest struct {
	// V is the request schema version (0 means current).
	V int `json:"v,omitempty"`
	// Requests holds the queries, answered in order.
	Requests []Query `json:"requests"`
}

// Query asks for the advisor's verdicts on one dataset.
type Query struct {
	// Dataset is the mimic name (GET /v1/datasets lists the catalog).
	Dataset string `json:"dataset"`
	// Scale is the generation scale in (0, 1]; 0 or omitted uses the
	// server default.
	Scale float64 `json:"scale,omitempty"`
	// Seed is the generation seed; 0 or omitted uses the server default.
	Seed uint64 `json:"seed,omitempty"`
	// Rule is "TR" or "ROR" (case-insensitive); omitted uses the server
	// default.
	Rule string `json:"rule,omitempty"`
}

// DecideResponse is the 200 body: one Result per query, in request order.
type DecideResponse struct {
	// V is the response schema version.
	V int `json:"v"`
	// Results holds one entry per query.
	Results []Result `json:"results"`
}

// Result is the advisor's answer for one query, echoing the resolved
// (dataset, scale, seed, rule) tuple so batch responses are self-describing.
type Result struct {
	Dataset string  `json:"dataset"`
	Scale   float64 `json:"scale"`
	Seed    uint64  `json:"seed"`
	Rule    string  `json:"rule"`
	// Decisions holds one verdict per attribute table, in declaration
	// order.
	Decisions []Decision `json:"decisions"`
}

// Decision is the wire form of core.Decision.
type Decision struct {
	FK         string  `json:"fk"`
	Attr       string  `json:"attr"`
	Considered bool    `json:"considered"`
	Avoid      bool    `json:"avoid"`
	Reason     string  `json:"reason,omitempty"`
	TR         float64 `json:"tr"`
	ROR        float64 `json:"ror"`
	QRStar     int     `json:"qr_star"`
	DFK        int     `json:"d_fk"`
}

// decisionFromCore converts one advisor verdict to its wire form.
func decisionFromCore(d core.Decision) Decision {
	return Decision{
		FK:         d.FK,
		Attr:       d.Attr,
		Considered: d.Considered,
		Avoid:      d.Avoid,
		Reason:     d.Reason,
		TR:         d.TR,
		ROR:        d.ROR,
		QRStar:     d.QRStar,
		DFK:        d.DFK,
	}
}

// DatasetsResponse is the GET /v1/datasets body.
type DatasetsResponse struct {
	// V is the response schema version.
	V int `json:"v"`
	// Available lists every dataset name the server can resolve, sorted.
	Available []string `json:"available"`
	// Loaded lists the (dataset, scale, seed) keys already resolved in the
	// registry — answered from cache, no generation on request.
	Loaded []LoadedDataset `json:"loaded"`
}

// LoadedDataset is one resolved registry entry.
type LoadedDataset struct {
	Dataset string  `json:"dataset"`
	Scale   float64 `json:"scale"`
	Seed    uint64  `json:"seed"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	// V is the response schema version.
	V int `json:"v"`
	// Error is the human-readable failure.
	Error string `json:"error"`
}
