package basestation

// Tier renditions of one share, built once per (share, tier) and
// shared by every recipient at that tier (DESIGN.md §9).

import (
	"sync"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/dispatch"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/selector"
)

// shareForms memoizes one share's tier renditions: the transform, the
// media-event payload and attrs, and for the full-image tier the
// announce and RTP-framed packets.  Each rendition is built under its
// own sync.Once, because the dispatch pool serves recipients
// concurrently, and is read-only once built: every recipient's message
// aliases the memoized attrs and bodies and owns only its envelope
// (seq, timestamp, trace hops).
type shareForms struct {
	bs                  *BaseStation
	sender, object, sel string
	obj                 *media.Object

	image               imageForm
	whole, sketch, text mediaForm
}

// mediaForm is one media-event rendition of the share.
type mediaForm struct {
	once    sync.Once
	attrs   selector.Attributes
	payload []byte
	// transformErr is the Registry.Transmode failure, err the encode
	// failure; at most one is set.
	transformErr, err error
}

// imageForm is the full-image tier: announce plus packetized stream.
type imageForm struct {
	once     sync.Once
	attrs    selector.Attributes
	announce []byte
	packets  []imagePacket
	err      error
}

type imagePacket struct {
	attrs selector.Attributes
	body  []byte
}

func (bs *BaseStation) newShareForms(sender, object, sel string, obj *media.Object) *shareForms {
	return &shareForms{bs: bs, sender: sender, object: object, sel: sel, obj: obj}
}

// build fills the media-event payload and attrs for o.
func (mf *mediaForm) build(o *media.Object, object string) {
	mf.payload, mf.err = apps.EncodeMediaObject(o)
	if mf.err != nil {
		return
	}
	mf.attrs = o.Attrs().Merge(selector.Attributes{
		message.AttrApp:    selector.S(apps.AppMedia),
		message.AttrObject: selector.S(object),
	})
}

// untransformed is the share itself as one media event (full-image
// tier content that is not a progressive image).
func (f *shareForms) untransformed() *mediaForm {
	f.whole.once.Do(func() { f.whole.build(f.obj, f.object) })
	return &f.whole
}

// transformed returns the share transmoded to kind, transforming on
// first use.  The transform span starts inside the Once, so the
// transform stage counts real transforms, not recipients.
func (f *shareForms) transformed(mf *mediaForm, kind media.Kind, failure string) *mediaForm {
	mf.once.Do(func() {
		sp := obs.StartStage(0, obs.StageTransform)
		o, err := f.bs.cfg.Registry.Transmode(f.obj, kind)
		if err != nil {
			mf.transformErr = err
			if sp.Active() {
				sp.EndErr("bs " + f.bs.id + ": " + f.object + " " + failure)
			}
			return
		}
		sp.End()
		mf.build(o, f.object)
	})
	return mf
}

// frames splits a progressive image share into its announce and
// RTP-framed packets (framed like core clients' data packets), with
// one SSRC and one RTP timestamp for the whole share.
func (f *shareForms) frames() *imageForm {
	img := &f.image
	img.once.Do(func() {
		meta, packets, err := apps.ShareImage(f.object, f.obj, f.bs.cfg.TotalPackets)
		if err != nil {
			img.err = err
			return
		}
		img.attrs = f.obj.Attrs().Merge(selector.Attributes{
			message.AttrApp:    selector.S(apps.AppImageViewer),
			message.AttrObject: selector.S(f.object),
		})
		img.announce = apps.EncodeImageMeta(meta)
		ssrc := fnv32(f.bs.id + "/" + f.object)
		ts := uint32(f.bs.clk.Now().UnixMilli())
		img.packets = make([]imagePacket, len(packets))
		for i, p := range packets {
			rp := rtp.Packet{
				PayloadType: 96,
				Marker:      i == len(packets)-1,
				Seq:         uint16(i),
				Timestamp:   ts,
				SSRC:        ssrc,
				Payload:     p,
			}
			img.packets[i] = imagePacket{
				attrs: selector.Attributes{
					message.AttrApp:    selector.S(apps.AppImageViewer),
					message.AttrObject: selector.S(f.object),
					message.AttrLevel:  selector.N(float64(i)),
				},
				body: rp.Marshal(),
			}
		}
	})
	return img
}

// forwardTiered emits the share at the given tier through the transmit
// adapter (to is ignored by the multicast adapter).  Full-image tier
// uses the announce + packets path so receivers can still apply their
// own packet budgets; lower tiers deliver one transformed media event.
// Each call mints its own messages around the memoized renditions.
func (bs *BaseStation) forwardTiered(f *shareForms, tier radio.Tier, tx dispatch.Deliverer, to string) error {
	switch tier {
	case radio.TierImage:
		if f.obj.Kind != media.KindImage ||
			(f.obj.Format != media.FormatEZW && f.obj.Format != media.FormatEZWColor) {
			return bs.deliverForm(f, f.untransformed(), false, tx, to)
		}
		img := f.frames()
		if img.err != nil {
			return img.err
		}
		if err := tx.Deliver(to, bs.newMessage(message.KindEvent, f.sender, f.sel, img.attrs, img.announce)); err != nil {
			return err
		}
		for _, p := range img.packets {
			if err := tx.Deliver(to, bs.newMessage(message.KindData, f.sender, f.sel, p.attrs, p.body)); err != nil {
				return err
			}
		}
		return nil
	case radio.TierSketch:
		sk := f.transformed(&f.sketch, media.KindSketch, "cannot sketch, falling back to text")
		if sk.transformErr != nil {
			// Non-image content cannot be sketched; fall back to text.
			return bs.forwardTiered(f, radio.TierText, tx, to)
		}
		return bs.deliverForm(f, sk, true, tx, to)
	case radio.TierText:
		txt := f.transformed(&f.text, media.KindText, "text transform failed")
		if txt.transformErr != nil {
			return txt.transformErr
		}
		return bs.deliverForm(f, txt, true, tx, to)
	default:
		return ErrNoService
	}
}

// deliverForm sends one media-event rendition to one recipient.
func (bs *BaseStation) deliverForm(f *shareForms, mf *mediaForm, transformed bool, tx dispatch.Deliverer, to string) error {
	if mf.err != nil {
		return mf.err
	}
	m := bs.newMessage(message.KindEvent, f.sender, f.sel, mf.attrs, mf.payload)
	if transformed {
		// The relayed message is minted here, so the transform hop can
		// only be attributed once its trace identity exists.
		obs.AppendHop(obs.MsgID(m.Sender, m.Seq), bs.id, obs.StageTransform)
	}
	return tx.Deliver(to, m)
}
