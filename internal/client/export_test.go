package client

import "time"

// ExpireCachedMetadata back-dates the cached metadata's DateExpires, so
// the next call that needs metadata must refetch it.
func (h *HTTPConn) ExpireCachedMetadata() {
	h.mu.Lock()
	h.cached.DateExpires = time.Now().Add(-time.Hour)
	h.mu.Unlock()
}
