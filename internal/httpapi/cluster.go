package httpapi

import "spatialdue/internal/registry"

// Shard forwarding: in a cluster deployment every tenant is owned by
// exactly one node (consistent hashing over a static membership map — see
// internal/cluster). A node receiving a /v1 request for a tenant it does
// not own answers 307 Temporary Redirect to the owner instead of serving
// stale or replica state. The SDK follows the redirect with its tenant and
// trace headers intact; ForwardHopsHeader counts the chain so a map
// disagreement surfaces as 508 forward_loop instead of bouncing forever.
const (
	// ForwardHopsHeader carries how many shard-forwarding redirects this
	// request has already followed.
	ForwardHopsHeader = "X-Spatialdue-Forward-Hops"
	// MaxForwardHops bounds the redirect chain. One hop suffices when the
	// map agrees; a second is legitimate mid-promotion (old owner → partner);
	// three means the nodes disagree about ownership.
	MaxForwardHops = 3
)

// ClusterStatus is a node's view of its cluster role, served at
// GET /v1/cluster/status and embedded in degraded /readyz responses.
type ClusterStatus struct {
	// Node is this node's name in the membership map.
	Node string `json:"node"`
	// Partner is the node replicating this node's shards.
	Partner string `json:"partner,omitempty"`
	// Degraded is true when the cluster has lost redundancy from this
	// node's perspective: it has promoted itself over a dead owner, its
	// partner has been unreachable past the heartbeat budget, or it is in
	// standby behind a promoted partner.
	Degraded bool `json:"degraded"`
	// Standby is true when this node came (back) up and found its partner
	// promoted over its shards: it forwards its own tenants to the partner
	// until an operator hands ownership back.
	Standby bool `json:"standby,omitempty"`
	// PromotedFor lists dead owners whose shards this node is serving.
	PromotedFor []string `json:"promoted_for,omitempty"`
	// PartnerDown is true when the partner has been unreachable past the
	// heartbeat budget (replication is buffering, redundancy is gone).
	PartnerDown bool `json:"partner_down,omitempty"`
	// ReplicationLag is how many journal records this node has appended
	// that its partner has not yet acknowledged.
	ReplicationLag uint64 `json:"replication_lag_records"`
	// StartupProbe is how this node's start-up question to its partner
	// ("did you promote over me?") ended: one of the StartupProbe*
	// values. Empty on a node with a partner means the question is still
	// open and the role undecided (see Starting); empty without a partner
	// means there was nothing to ask.
	StartupProbe string `json:"startup_probe,omitempty"`
}

// Outcomes of a node's start-up probe. Only answered tells the node its
// role; on the others it starts as the owner of its shards.
const (
	StartupProbeAnswered    = "answered"
	StartupProbeUnreachable = "unreachable"
	StartupProbeTimeout     = "timeout"
	StartupProbeUndecodable = "undecodable"
)

// Starting reports whether the node has not yet decided its role. A
// starting node answers only GET /v1/cluster/status; everything else waits.
func (cs ClusterStatus) Starting() bool { return cs.Partner != "" && cs.StartupProbe == "" }

// Cluster is what the HTTP layer needs from a cluster node. Implemented by
// internal/cluster.Node; nil (the default) means single-node operation and
// disables forwarding, replication hooks, and the status endpoint.
type Cluster interface {
	// Route resolves the tenant's shard: local reports whether this node
	// should serve the request; otherwise url is the owning node's base URL
	// to redirect to.
	Route(tenant string) (url string, local bool)
	// Status reports the node's cluster role for readyz/metrics.
	Status() ClusterStatus
	// AllocRegistered replicates a new allocation to the partner.
	AllocRegistered(a *registry.Allocation)
	// AllocUnregistered replicates an allocation teardown.
	AllocUnregistered(tenant, name string)
	// FieldUploaded replicates a full field upload. The callee captures its
	// own stripe-consistent snapshot of a.Array (the streaming upload path
	// no longer materializes a contiguous vals buffer to hand over);
	// concurrent recovery writes that slip into the snapshot are benign
	// because journal-record replay on the replica is idempotent — the same
	// property the connect-time snapshot already relies on.
	FieldUploaded(a *registry.Allocation)
}
