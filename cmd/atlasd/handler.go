package main

import (
	"errors"
	"net/http"

	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/httpx"
	"mmlpt/internal/packet"
)

// The wire types. httpx.WriteJSON keeps their field order and appends a
// newline, so responses are stable bytes for the CI golden diff.

type statsResponse struct {
	Pairs    int `json:"pairs"`
	Nodes    int `json:"nodes"`
	Edges    int `json:"edges"`
	Routers  int `json:"routers"`
	Diamonds int `json:"diamonds"`
}

type routerResponse struct {
	Addr   string   `json:"addr"`
	Router []string `json:"router"`
}

type obsResponse struct {
	Pair int `json:"pair"`
	Hop  int `json:"hop"`
}

type addrResponse struct {
	Addr string        `json:"addr"`
	Seen []obsResponse `json:"seen"`
}

type censusEntry struct {
	Div       string `json:"div"`
	Conv      string `json:"conv"`
	Count     int    `json:"count"`
	Pairs     int    `json:"pairs"`
	MaxWidth  int    `json:"max_width"`
	MaxLength int    `json:"max_length"`
}

type censusResponse struct {
	Diamonds []censusEntry `json:"diamonds"`
}

// queryErr maps a serve-layer error onto a status: absent address 404,
// closed/corrupt snapshot 500.
func queryErr(w http.ResponseWriter, err error) {
	if errors.Is(err, serve.ErrNotFound) {
		httpx.Errorf(w, http.StatusNotFound, "%v", err)
		return
	}
	httpx.Errorf(w, http.StatusInternalServerError, "%v", err)
}

// newMux routes the v1 API over one serve.Service. The address-typed
// routes, /v1/router/{addr} and /v1/addr/{addr}, answer 400 for an
// {addr} that is not an address's canonical text and 404 for one the
// atlas never saw; a path with an empty or extra segment names no route.
func newMux(svc *serve.Service) http.Handler {
	mux := httpx.NewMux()

	httpx.Route(mux, http.MethodGet, "/healthz", func(w http.ResponseWriter, r *http.Request) {
		if _, err := svc.Stats(); err != nil {
			httpx.Errorf(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})

	httpx.Route(mux, http.MethodGet, "/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		st, err := svc.Stats()
		if err != nil {
			queryErr(w, err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, statsResponse{
			Pairs: st.Pairs, Nodes: st.Nodes, Edges: st.Edges,
			Routers: st.Routers, Diamonds: st.Diamonds,
		})
	})

	httpx.Route(mux, http.MethodGet, "/v1/census", func(w http.ResponseWriter, r *http.Request) {
		ds, err := svc.DiamondCensus()
		if err != nil {
			queryErr(w, err)
			return
		}
		resp := censusResponse{Diamonds: make([]censusEntry, len(ds))}
		for i, d := range ds {
			resp.Diamonds[i] = censusEntry{
				Div: d.Div, Conv: d.Conv, Count: d.Count, Pairs: len(d.Pairs),
				MaxWidth: d.MaxWidth, MaxLength: d.MaxLength,
			}
		}
		httpx.WriteJSON(w, http.StatusOK, resp)
	})

	// addrRoute registers a GET route whose {addr} must be an address's
	// canonical text: the lenient ParseAddr would answer "010.0.0.1" as
	// 10.0.0.1, where inet_aton reads 8.0.0.1.
	addrRoute := func(path string, h func(http.ResponseWriter, packet.Addr)) {
		httpx.Route(mux, http.MethodGet, path, func(w http.ResponseWriter, r *http.Request) {
			addr, err := packet.ParseCanonicalAddr(r.PathValue("addr"))
			if err != nil {
				httpx.Errorf(w, http.StatusBadRequest, "%v", err)
				return
			}
			h(w, addr)
		})
	}

	addrRoute("/v1/router/{addr}", func(w http.ResponseWriter, addr packet.Addr) {
		members, err := svc.Router(addr)
		if err != nil {
			queryErr(w, err)
			return
		}
		resp := routerResponse{Addr: addr.String(), Router: make([]string, len(members))}
		for i, m := range members {
			resp.Router[i] = m.String()
		}
		httpx.WriteJSON(w, http.StatusOK, resp)
	})

	addrRoute("/v1/addr/{addr}", func(w http.ResponseWriter, addr packet.Addr) {
		obs, err := svc.Provenance(addr)
		if err != nil {
			queryErr(w, err)
			return
		}
		resp := addrResponse{Addr: addr.String(), Seen: make([]obsResponse, len(obs))}
		for i, o := range obs {
			resp.Seen[i] = obsResponse{Pair: o.Pair, Hop: o.Hop}
		}
		httpx.WriteJSON(w, http.StatusOK, resp)
	})

	return mux
}
