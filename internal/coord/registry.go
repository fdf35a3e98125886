package coord

import (
	"net/http"
	"sort"
	"sync"

	"repro/internal/api"
)

// Registry is the long-lived worker pool of a process that runs many
// campaigns: workers register against it, and every
// Coordinator attached to it sees the full pool for the duration of its
// campaign. This is what lets lbfarmd accept worker registrations
// continuously while coordinators come and go per campaign — the
// registry outlives them all.
type Registry struct {
	dial func(id, addr string) Worker
	logf func(format string, args ...any)

	mu       sync.Mutex
	workers  map[string]string // id → addr
	attached map[*Coordinator]struct{}
}

// NewRegistry builds an empty pool. dial builds a Worker handle from a
// registration (nil = the HTTP Client); logf receives the registry's
// event log (nil = silent).
func NewRegistry(dial func(id, addr string) Worker, logf func(format string, args ...any)) *Registry {
	if dial == nil {
		dial = func(id, addr string) Worker { return NewClient(id, addr) }
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Registry{
		dial:     dial,
		logf:     logf,
		workers:  map[string]string{},
		attached: map[*Coordinator]struct{}{},
	}
}

// Register adds (or refreshes) a worker. Workers re-register every
// interval — the periodic register is their heartbeat — so an unchanged
// (id, addr) reaches only the attached coordinators that no longer hold
// the worker (they declared it dead), and joins it back into their
// pools. A new address re-dials the worker everywhere: it restarted or
// moved.
func (r *Registry) Register(id, addr string) {
	r.mu.Lock()
	moved := r.workers[id] != addr
	r.workers[id] = addr
	n := len(r.workers)
	cs := r.attachedLocked()
	r.mu.Unlock()
	if moved {
		r.logf("fleet: worker %s registered at %s (%d in pool)", id, addr, n)
	}
	for _, c := range cs {
		c.join(r.dial(id, addr), moved)
	}
}

// forget drops a worker from the pool: a coordinator declared it dead,
// so later campaigns are not seeded with it (each would dispatch to it
// and spend range attempts until it is declared dead again). A live
// worker's next periodic register adds it back — as new, so the
// coordinators still holding it re-dial it too.
func (r *Registry) forget(id string) {
	r.mu.Lock()
	_, known := r.workers[id]
	delete(r.workers, id)
	n := len(r.workers)
	r.mu.Unlock()
	if known {
		r.logf("fleet: worker %s forgotten, declared dead (%d in pool)", id, n)
	}
}

// Attach seeds c with every registered worker and forwards future
// registrations to it until the returned detach func runs.
// Campaign-scoped: the fleet executor attaches at campaign start and
// detaches when the campaign ends.
func (r *Registry) Attach(c *Coordinator) (detach func()) {
	r.mu.Lock()
	ids := make([]string, 0, len(r.workers))
	for id := range r.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	seed := make(map[string]string, len(ids))
	for _, id := range ids {
		seed[id] = r.workers[id]
	}
	r.attached[c] = struct{}{}
	r.mu.Unlock()
	for _, id := range ids {
		c.AddWorker(r.dial(id, seed[id]))
	}
	return func() {
		r.mu.Lock()
		delete(r.attached, c)
		r.mu.Unlock()
	}
}

// Size is the registered pool size.
func (r *Registry) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.workers)
}

// attachedLocked snapshots the attached coordinators; caller holds
// r.mu. Forwarding happens outside the lock so a coordinator's own
// locking never nests inside the registry's.
func (r *Registry) attachedLocked() []*Coordinator {
	cs := make([]*Coordinator, 0, len(r.attached))
	for c := range r.attached {
		cs = append(cs, c)
	}
	return cs
}

// Routes mounts the worker-facing registration API on mux (lbfarmd
// -fleet serves it on its campaign API listener, and on -coord-listen
// when set):
//
//	POST /v1/register   body: api.Registration {id, addr} — join (or
//	                    rejoin) the pool; workers repeat it every
//	                    interval as their heartbeat
//
// Registration is open by design: the registry trusts its network,
// like the rest of the lab-cluster workflow this automates.
func (r *Registry) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/register", func(w http.ResponseWriter, req *http.Request) {
		var reg api.Registration
		if err := api.Decode(req.Body, &reg); err != nil {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "decoding registration: %v", err)
			return
		}
		if reg.ID == "" || reg.Addr == "" {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "registration needs id and addr")
			return
		}
		r.Register(reg.ID, reg.Addr)
		w.WriteHeader(http.StatusNoContent)
	})
}
