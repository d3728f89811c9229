#include "widget/widget.h"

void Configure(WidgetOptions* o, int* out) {
  o->size = 8;
  ParseFlag("--depth", &o->depth);
  *out = o->spare_knob;  // A read, not a setter.
}
