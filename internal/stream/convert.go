package stream

import (
	"fmt"

	"yourandvalue/internal/geoip"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/pmeserver"
	"yourandvalue/internal/useragent"
)

// Convert turns raw stream events into the anonymous payloads a real
// client would upload: contributions for every detected price
// notification and estimate queries for the encrypted ones. Every
// load driver (internal/scaletest, perfbench) builds its payloads here,
// so the same events always produce bit-identical requests.
func Convert(batch []Event, geo *geoip.DB, registry *nurl.Registry) ([]pmeserver.Contribution, []pmeserver.EstimateItem) {
	var contributions []pmeserver.Contribution
	var items []pmeserver.EstimateItem
	for _, ev := range batch {
		if ev.Kind != EventRequest {
			continue
		}
		r := ev.Request
		n, ok := registry.Parse(r.URL)
		if !ok || n.Kind == nurl.NoPrice {
			continue
		}
		dev := useragent.Parse(r.UserAgent)
		origin := "web"
		if dev.Origin == useragent.MobileApp {
			origin = "app"
		}
		slot := ""
		if n.Width > 0 && n.Height > 0 {
			slot = fmt.Sprintf("%dx%d", n.Width, n.Height)
		}
		city := geo.LookupString(r.ClientIP).String()
		c := pmeserver.Contribution{
			Observed:  r.Time,
			ADX:       n.ADX,
			Encrypted: n.Kind == nurl.Encrypted,
			City:      city,
			OS:        dev.OS.String(),
			Device:    dev.Type.String(),
			Origin:    origin,
			Slot:      slot,
		}
		if n.Kind == nurl.Cleartext {
			c.PriceCPM = n.PriceCPM
		} else {
			items = append(items, pmeserver.EstimateItem{
				Observed: r.Time,
				ADX:      n.ADX,
				City:     city,
				OS:       dev.OS.String(),
				Device:   dev.Type.String(),
				Origin:   origin,
				Slot:     slot,
			})
		}
		contributions = append(contributions, c)
	}
	return contributions, items
}
