package serve

import (
	"encoding/json"
	"fmt"
)

// Request is the wire form of one job submission. DGEMM requests carry the
// full m x n x k shape; solve requests carry only the order n.
type Request struct {
	Tenant string `json:"tenant"`
	Kind   string `json:"kind"`
	M      int    `json:"m,omitempty"`
	N      int    `json:"n"`
	K      int    `json:"k,omitempty"`
}

// Response is the wire form of one job outcome. Accepted jobs report their
// virtual timing; rejections report the retry-after estimate instead.
type Response struct {
	ID     uint64 `json:"id,omitempty"`
	Tenant string `json:"tenant"`
	Kind   string `json:"kind"`
	Status string `json:"status"` // "ok" or "rejected"

	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`

	SubmitSeconds  float64 `json:"submit_seconds,omitempty"`
	LatencySeconds float64 `json:"latency_seconds,omitempty"`
	BatchID        uint64  `json:"batch,omitempty"`
	BatchJobs      int     `json:"batch_jobs,omitempty"`
	GSplit         float64 `json:"gsplit,omitempty"`
	Drained        int     `json:"drained,omitempty"`
}

// ParseRequest decodes and validates one request against the limits,
// returning both the wire form and its expanded Job.
func ParseRequest(data []byte, lim Limits) (Request, Job, error) {
	var req Request
	if err := json.Unmarshal(data, &req); err != nil {
		return Request{}, Job{}, fmt.Errorf("serve: bad request JSON: %w", err)
	}
	job, err := jobFromRequest(req, lim.withDefaults())
	if err != nil {
		return Request{}, Job{}, err
	}
	return req, job, nil
}

// MarshalRequest encodes a request in canonical wire form.
func MarshalRequest(req Request) ([]byte, error) {
	return json.Marshal(req)
}

// ResponseFromResult renders a result in wire form.
func ResponseFromResult(r Result) Response {
	resp := Response{
		ID:     r.ID,
		Tenant: r.Tenant,
		Kind:   r.Kind.String(),
	}
	if r.Rejected {
		resp.Status = "rejected"
		resp.RetryAfterSeconds = r.RetryAfter
		return resp
	}
	resp.Status = "ok"
	resp.SubmitSeconds = r.Submit
	resp.LatencySeconds = r.Latency()
	resp.BatchID = r.BatchID
	resp.BatchJobs = r.BatchJobs
	resp.GSplit = r.GSplit
	resp.Drained = r.Drained
	return resp
}

// MarshalResponse encodes a response in canonical wire form.
func MarshalResponse(resp Response) ([]byte, error) {
	return json.Marshal(resp)
}

// ParseResponse decodes a response and checks its structural invariants:
// a known status, and rejection/completion fields never mixed.
func ParseResponse(data []byte) (Response, error) {
	var resp Response
	if err := json.Unmarshal(data, &resp); err != nil {
		return Response{}, fmt.Errorf("serve: bad response JSON: %w", err)
	}
	switch resp.Status {
	case "ok":
		if resp.RetryAfterSeconds != 0 {
			return Response{}, fmt.Errorf("serve: ok response carries retry_after_seconds")
		}
	case "rejected":
		if resp.LatencySeconds != 0 || resp.BatchID != 0 || resp.BatchJobs != 0 {
			return Response{}, fmt.Errorf("serve: rejected response carries completion fields")
		}
	default:
		return Response{}, fmt.Errorf("serve: unknown response status %q", resp.Status)
	}
	return resp, nil
}
