// Package photonics models the nanophotonic devices of the ATAC+ ONet:
// on-chip Ge lasers, ring resonator modulators and filters, waveguides and
// photodetectors/receivers. It solves the optical link budget for the
// adaptive SWMR link (Section IV-A of the paper) and produces the laser
// wall-plug power required in each operating mode, the per-bit electrical
// energies of modulators and receivers, the thermal tuning power of ring
// resonators, and the photonic device area.
//
// The parameter values default to Table II of the paper; parameters not in
// the table follow the link-level design-space numbers of Georgas et al.
// (CICC 2011), the source the paper cites for its DSENT photonic models.
package photonics

import (
	"fmt"
	"math"
)

// Params are the optical technology parameters (Table II plus the
// link-model constants the paper inherits from its references).
type Params struct {
	LaserEfficiency   float64 // wall-plug efficiency of the laser (0.30)
	WaveguidePitchUM  float64 // waveguide pitch, µm (4)
	WaveguideLossDBCM float64 // propagation loss, dB/cm (0.2; Fig 9 sweeps to 4)
	NonlinearityMW    float64 // max optical power per waveguide, mW (30)
	RingThroughDB     float64 // loss passing a detuned ring (0.0001 dB)
	RingDropDB        float64 // loss through a tuned (drop) ring (1.0 dB)
	RingAreaUM2       float64 // footprint per ring, µm² (100)
	ResponsivityAPerW float64 // photodetector responsivity, A/W (1.1)

	// Link-model constants (Georgas et al. defaults).
	ReceiverSensUW    float64 // optical power required at the photodetector, µW
	PhotodetectorDB   float64 // photodetector insertion loss, dB
	ModulatorInsDB    float64 // modulator insertion loss at the sender, dB
	ModulatorEnergyFJ float64 // electrical energy per modulated bit, fJ
	ReceiverEnergyFJ  float64 // electrical energy per received bit, fJ
	TuningUWPerRing   float64 // average thermal tuning power per ring, µW
	WaveguideLoopCM   float64 // length of the ONet ring waveguide, cm

	// TotalWaveguideLossDB, when positive, overrides the propagation
	// loss (loss/cm x loop length) with a fixed total — the knob Fig 9
	// sweeps from 0.2 dB to 4 dB.
	TotalWaveguideLossDB float64
}

// DefaultParams returns the Table II technology assumptions.
func DefaultParams() Params {
	return Params{
		LaserEfficiency:   0.30,
		WaveguidePitchUM:  4,
		WaveguideLossDBCM: 0.2,
		NonlinearityMW:    30,
		RingThroughDB:     0.0001,
		RingDropDB:        1.0,
		RingAreaUM2:       100,
		ResponsivityAPerW: 1.1,

		ReceiverSensUW:    25, // ~-16 dBm sensitivity at 1 Gb/s per λ
		PhotodetectorDB:   0.1,
		ModulatorInsDB:    0.5,
		ModulatorEnergyFJ: 40,
		ReceiverEnergyFJ:  60,
		TuningUWPerRing:   20,
		WaveguideLoopCM:   8, // serpentine visiting all 64 hubs
	}
}

// Ideal returns a copy with lossless devices and a 100%-efficient laser —
// the ATAC+(Ideal) scenario. Modulator/receiver electrical energies remain:
// they are circuit energies, not optical losses.
func (p Params) Ideal() Params {
	p.LaserEfficiency = 1
	p.WaveguideLossDBCM = 0
	p.RingThroughDB = 0
	p.RingDropDB = 0
	p.PhotodetectorDB = 0
	p.ModulatorInsDB = 0
	p.TuningUWPerRing = 0
	return p
}

// dbToLinear converts a loss in dB to a multiplicative power factor >= 1.
func dbToLinear(db float64) float64 { return math.Pow(10, db/10) }

// Geometry describes the ONet SWMR structure the devices are instantiated
// in: H hubs on a shared loop, a data link W bits wide and a select link
// SelectBits wide. Each hub modulates its own wavelength onto every
// waveguide (WDM), so each waveguide carries H wavelengths.
type Geometry struct {
	Hubs       int // H: endpoints on the loop (64)
	DataBits   int // W: data-link width = flit size (64)
	SelectBits int // select-link width = ceil(log2(H)) (6)
}

// NewGeometry derives the SWMR geometry for the given hub count and flit
// width, with the select width of Section IV-A (log2 of the hub count).
func NewGeometry(hubs, flitBits int) Geometry {
	s := 0
	for 1<<s < hubs {
		s++
	}
	if s == 0 {
		s = 1
	}
	return Geometry{Hubs: hubs, DataBits: flitBits, SelectBits: s}
}

// DataRings returns the total ring resonator count on the data link:
// per hub, W modulator rings plus (H-1)·W receive filter rings.
func (g Geometry) DataRings() int {
	return g.Hubs * (g.DataBits + (g.Hubs-1)*g.DataBits)
}

// SelectRings returns the ring count on the select link.
func (g Geometry) SelectRings() int {
	return g.Hubs * (g.SelectBits + (g.Hubs-1)*g.SelectBits)
}

// TotalRings returns all rings in the ONet.
func (g Geometry) TotalRings() int { return g.DataRings() + g.SelectRings() }

// Waveguides returns the number of physical waveguides (data + select).
func (g Geometry) Waveguides() int { return g.DataBits + g.SelectBits }

// Link captures the solved optical budget of one SWMR wavelength channel
// ("bit-channel"): one sender wavelength on one waveguide, receivable by
// H-1 hubs.
type Link struct {
	Params   Params
	Geometry Geometry

	// WorstCaseLossDB is the optical loss (dB) from the modulator output
	// to the farthest photodetector, excluding the broadcast split.
	WorstCaseLossDB float64

	// LaserOpticalUnicastW is the optical output power one bit-channel's
	// laser must emit to reach a single tuned-in receiver.
	LaserOpticalUnicastW float64
	// LaserOpticalBroadcastW is the optical output power needed when all
	// H-1 receivers are tuned in, each extracting an equal share.
	LaserOpticalBroadcastW float64

	// LaserWallUnicastW / LaserWallBroadcastW are the corresponding
	// electrical (wall-plug) powers per bit-channel.
	LaserWallUnicastW   float64
	LaserWallBroadcastW float64
}

// Solve computes the link budget of one SWMR bit-channel. Along a single
// wavelength's path the signal passes the H-1 modulator rings of the other
// hubs (detuned to other wavelengths) and up to H-1 of its own filter rings
// at intermediate hubs (tuned out in unicast mode): 2·(H-1) ring passes.
// A broadcast splits the light among all H-1 readers.
func Solve(p Params, g Geometry) (Link, error) { return solve(p, g, 2, g.Hubs-1) }

// CrossbarGeometry derives the geometry of a Corona-style MWSR crossbar:
// H home channels of W data wavelengths each, plus one token wavelength
// per channel standing in for the select link (token arbitration replaces
// select notifications; the grant is a one-bit event).
func CrossbarGeometry(hubs, flitBits int) Geometry {
	return Geometry{Hubs: hubs, DataBits: flitBits, SelectBits: 1}
}

// SolveCrossbar computes the link budget of one MWSR home-channel
// wavelength in a Corona-style crossbar. Worst-case through loss scales
// with radix at 3·(H-1) ring passes (Li et al.-style accounting): a
// wavelength launched by the farthest writer passes the detuned modulator
// banks of the H-1 other writers sharing the channel — modulator-ring and
// neighboring-filter passes — before the home hub's drop ring. A home
// channel has exactly one reader (the home hub's fixed-tuned drop
// filters), so broadcast power equals unicast power and the nonlinearity
// check binds on that single-receiver budget.
func SolveCrossbar(p Params, g Geometry) (Link, error) { return solve(p, g, 3, 1) }

// solve is the one link budget: modulator insertion, full loop
// propagation, ringsPerHub·(H-1) detuned ring passes, the drop into the
// receiver and the photodetector loss on the worst-case path, with the
// light split among readers at broadcast. It returns an error if the
// broadcast power exceeds the waveguide nonlinearity limit — the same
// feasibility constraint DSENT enforces.
func solve(p Params, g Geometry, ringsPerHub, readers int) (Link, error) {
	if g.Hubs < 2 {
		return Link{}, fmt.Errorf("photonics: need at least 2 hubs, got %d", g.Hubs)
	}
	if err := p.Validate(); err != nil {
		return Link{}, err
	}
	wgLoss := p.WaveguideLossDBCM * p.WaveguideLoopCM
	if p.TotalWaveguideLossDB > 0 {
		wgLoss = p.TotalWaveguideLossDB
	}
	lossDB := p.ModulatorInsDB +
		wgLoss +
		p.RingThroughDB*float64(ringsPerHub*(g.Hubs-1)) +
		p.RingDropDB +
		p.PhotodetectorDB
	uni := p.ReceiverSensUW * 1e-6 * dbToLinear(lossDB)
	bcast := uni * float64(readers)

	if bcast > p.NonlinearityMW*1e-3 {
		return Link{}, fmt.Errorf("photonics: %d-reader broadcast power %.2f mW exceeds %v mW nonlinearity limit",
			readers, bcast*1e3, p.NonlinearityMW)
	}
	eff := p.LaserEfficiency
	return Link{
		Params:                 p,
		Geometry:               g,
		WorstCaseLossDB:        lossDB,
		LaserOpticalUnicastW:   uni,
		LaserOpticalBroadcastW: bcast,
		LaserWallUnicastW:      uni / eff,
		LaserWallBroadcastW:    bcast / eff,
	}, nil
}

// DataLinkWallPowerW returns the wall-plug laser power of the whole
// W-bit-wide data link of one hub in the given mode ("unicast" power for a
// single receiver, "broadcast" for all).
func (l Link) DataLinkWallPowerW(broadcast bool) float64 {
	per := l.LaserWallUnicastW
	if broadcast {
		per = l.LaserWallBroadcastW
	}
	return per * float64(l.Geometry.DataBits)
}

// SelectLinkWallPowerW returns the wall-plug laser power of one hub's
// select link while transmitting. Select-link receivers are always tuned
// in (Section IV-A), so the select link always runs at broadcast power.
func (l Link) SelectLinkWallPowerW() float64 {
	return l.LaserWallBroadcastW * float64(l.Geometry.SelectBits)
}

// ModulatorEnergyJPerFlit returns the sender-side electrical energy to
// modulate one data flit.
func (l Link) ModulatorEnergyJPerFlit() float64 {
	return l.Params.ModulatorEnergyFJ * 1e-15 * float64(l.Geometry.DataBits)
}

// ReceiverEnergyJPerFlit returns the electrical energy for nReceivers
// tuned-in hubs to receive one data flit.
func (l Link) ReceiverEnergyJPerFlit(nReceivers int) float64 {
	return l.Params.ReceiverEnergyFJ * 1e-15 * float64(l.Geometry.DataBits) * float64(nReceivers)
}

// SelectEventEnergyJ returns the energy of one select-link notification:
// modulating SelectBits and receiving them at all H-1 always-tuned hubs,
// plus the laser energy for the one-cycle transmission at period secPerCycle.
func (l Link) SelectEventEnergyJ(secPerCycle float64) float64 {
	bits := float64(l.Geometry.SelectBits)
	mod := l.Params.ModulatorEnergyFJ * 1e-15 * bits
	rx := l.Params.ReceiverEnergyFJ * 1e-15 * bits * float64(l.Geometry.Hubs-1)
	laser := l.SelectLinkWallPowerW() * secPerCycle
	return mod + rx + laser
}

// TuningPowerW returns the total thermal tuning power of every ring in the
// network. Athermal scenarios pass athermal=true and get zero.
func (l Link) TuningPowerW(athermal bool) float64 {
	if athermal {
		return 0
	}
	return l.Params.TuningUWPerRing * 1e-6 * float64(l.Geometry.TotalRings())
}

// AreaMM2 returns the die area of the photonic components: rings plus
// waveguide routing at the configured pitch.
func (l Link) AreaMM2() float64 {
	rings := float64(l.Geometry.TotalRings()) * l.Params.RingAreaUM2 * 1e-6 // mm²
	wg := float64(l.Geometry.Waveguides()) *
		l.Params.WaveguidePitchUM * 1e-3 * // pitch in mm
		l.Params.WaveguideLoopCM * 10 // length in mm
	return rings + wg
}
