package service

import (
	"errors"
	"net/http"
	"os"
	"strings"

	"repro/internal/api"
	"repro/internal/obs"
)

// Handler serves the campaign service API in the shared wire dialect
// (internal/api — JSON bodies, the {"error":{code,message}} envelope
// on every failure). docs/service.md is the endpoint reference.
//
//	POST /v1/campaigns            body: campaign.Spec JSON →
//	                              api.CampaignStatus; 202 queued (or
//	                              already in flight), 200 served from
//	                              the artifact cache, 400 bad spec,
//	                              429 queue full, 503 draining
//	GET  /v1/campaigns            → api.CampaignList
//	GET  /v1/campaigns/{id}       → api.CampaignStatus; 404 unknown
//	GET  /v1/campaigns/{id}/events  SSE stream of api.Event frames;
//	                              404 unknown
//	GET  /v1/artifacts/{file}     cached artifact by spec hash:
//	                              {hash}.json, {hash}.csv, or
//	                              {hash}.runinfo.json; 404 unknown or
//	                              not yet complete
//	GET  /debug/vars              {"obs": merged running snapshot,
//	                              "lbfarmd": stats} (obs.RegisterDebug)
//	GET  /debug/pprof/            profile family
//	GET  /metrics                 lbfarmd_ control series + merged lb_
//	                              campaign telemetry
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		st, err := d.Submit(r.Body)
		if err != nil {
			var ae *api.Error
			if errors.As(err, &ae) && ae.Status != 0 {
				api.WriteError(w, ae.Status, ae.Code, "%s", ae.Message)
			} else {
				api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
			}
			return
		}
		code := http.StatusAccepted
		if st.Cached {
			code = http.StatusOK
		}
		api.WriteJSON(w, code, st)
	})
	mux.HandleFunc("GET /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.CampaignList{Campaigns: d.List()})
	})
	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		st, ok := d.Status(id)
		if !ok {
			api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no campaign %s", id)
			return
		}
		api.WriteJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/campaigns/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, ok := d.Status(id); !ok {
			api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no campaign %s", id)
			return
		}
		serveSSE(w, r, d.hub, id, func() api.CampaignStatus {
			st, _ := d.Status(id)
			return st
		})
	})
	mux.HandleFunc("GET /v1/artifacts/{file}", func(w http.ResponseWriter, r *http.Request) {
		file := r.PathValue("file")
		hash, kind, ok := splitArtifact(file)
		if !ok {
			api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no artifact %s", file)
			return
		}
		data, err := d.cfg.Store.GetArtifact(hash, kind)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no artifact %s", file)
			} else {
				api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
			}
			return
		}
		switch kind {
		case KindCSV:
			w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		default:
			w.Header().Set("Content-Type", "application/json")
		}
		w.Write(data)
	})
	// Executor endpoints ride the same mux: in fleet mode this mounts
	// the worker registration passthrough (POST /v1/register), so
	// workers point -coord at the daemon.
	if rp, ok := d.cfg.Executor.(routeProvider); ok {
		rp.Routes(mux)
	}
	obs.RegisterDebug(mux, d.WriteMetrics, map[string]func() any{
		"obs":     func() any { return d.MergedSnapshot() },
		"lbfarmd": func() any { return d.Stats() },
	})
	return mux
}

// splitArtifact maps an artifact filename back to (hash, kind):
// {hash}.json, {hash}.csv, {hash}.runinfo.json, {hash}.fleetinfo.json.
func splitArtifact(file string) (hash, kind string, ok bool) {
	switch {
	case strings.HasSuffix(file, ".runinfo.json"):
		return strings.TrimSuffix(file, ".runinfo.json"), KindRunInfo, true
	case strings.HasSuffix(file, ".fleetinfo.json"):
		return strings.TrimSuffix(file, ".fleetinfo.json"), KindFleetInfo, true
	case strings.HasSuffix(file, ".json"):
		return strings.TrimSuffix(file, ".json"), KindJSON, true
	case strings.HasSuffix(file, ".csv"):
		return strings.TrimSuffix(file, ".csv"), KindCSV, true
	}
	return "", "", false
}
