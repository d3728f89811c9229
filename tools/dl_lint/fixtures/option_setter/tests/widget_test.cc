#include "widget/widget.h"

void Configure(WidgetOptions* o, int* out) {
  o->size = 8;
  ParseFlag("--depth", &o->depth);
  *out = o->spare_knob;  // A read, not a setter.
  o->gadget.seed = 3;    // Sets GadgetOptions::seed, not WidgetOptions::seed.
}

void Level(GadgetOptions& g) { g.level = 2; }

void Width() {
  auto* g = MakeGadget();
  g->width = 5;  // `auto`: matched by name.
}
