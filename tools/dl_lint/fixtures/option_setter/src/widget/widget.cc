#include "widget/widget.h"

// An assignment in the field's own directory is not a caller.
WidgetOptions Tuned() {
  WidgetOptions o;
  o.spare_knob = 2;
  return o;
}
